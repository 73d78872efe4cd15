#include "stream.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "traces/dataset.h"

namespace perfbench {

namespace {

// Workload table (README.md "Workloads" says why each exists). Rates are
// aggregate decisions/s of the fixed-rate phase.
const Workload kWorkloads[] = {
    {"us-viewers", "us", "epoll", 2000, 20000.0, 0.0, 1.0},
    {"upi-viewers", "upi", "epoll", 2000, 10000.0, 0.0, 1.0},
    {"us-churn-100k", "us", "uring", 100000, 25000.0, 8.0, 2.0},
};

constexpr char kMagic[8] = {'P', 'B', 'T', 'R', 'A', 'J', '0', '1'};

std::uint64_t Mix(std::uint64_t seed, std::uint64_t salt) {
  Rng r{seed ^ (salt * 0x9e3779b97f4a7c15ULL)};
  r.Next();
  return r.Next();
}

}  // namespace

Workload FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t Rng::Next() {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::vector<std::uint32_t> Trajectories::OfDataset(std::uint32_t d) const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t t = 0; t < dataset.size(); ++t) {
    if (dataset[t] == d) out.push_back(t);
  }
  return out;
}

void Trajectories::Save(const std::filesystem::path& path) const {
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    const std::uint64_t header[3] = {dim, steps, dataset.size()};
    out.write(kMagic, sizeof kMagic);
    out.write(reinterpret_cast<const char*>(header), sizeof header);
    out.write(reinterpret_cast<const char*>(dataset.data()),
              static_cast<std::streamsize>(dataset.size() * 4));
    out.write(reinterpret_cast<const char*>(states.data()),
              static_cast<std::streamsize>(states.size() * 8));
    if (!out.flush()) throw std::runtime_error("cannot write " + tmp.string());
  }
  std::filesystem::rename(tmp, path);
}

Trajectories Trajectories::Load(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8];
  std::uint64_t header[3];
  in.read(magic, sizeof magic);
  in.read(reinterpret_cast<char*>(header), sizeof header);
  if (!in || std::memcmp(magic, kMagic, sizeof kMagic) != 0 ||
      header[0] == 0 || header[1] == 0 || header[0] > 4096 ||
      header[1] > 100000 || header[2] > 100000) {
    throw std::runtime_error("bad trajectory file " + path.string());
  }
  Trajectories t;
  t.dim = header[0];
  t.steps = header[1];
  t.dataset.resize(header[2]);
  t.states.resize(header[2] * t.steps * t.dim);
  in.read(reinterpret_cast<char*>(t.dataset.data()),
          static_cast<std::streamsize>(t.dataset.size() * 4));
  in.read(reinterpret_cast<char*>(t.states.data()),
          static_cast<std::streamsize>(t.states.size() * 8));
  if (!in) throw std::runtime_error("truncated " + path.string());
  return t;
}

SlotStream::SlotStream(
    const Workload& workload, const Trajectories& traj,
    const std::vector<std::vector<std::uint32_t>>& by_dataset,
    std::uint64_t seed, std::size_t slot)
    : workload_(&workload),
      traj_(&traj),
      pool_(&by_dataset[slot % kDatasets]),
      rng_{Mix(seed, slot + 1)},
      dataset_(slot % kDatasets) {
  BeginLifetime(true);
}

const double* SlotStream::State() const {
  return traj_->State(trajectory_, position_);
}

bool SlotStream::Advance() {
  if (++position_ < end_) return false;
  BeginLifetime(false);
  return true;
}

void SlotStream::BeginLifetime(bool first) {
  const auto steps = static_cast<std::uint32_t>(traj_->steps);
  trajectory_ = (*pool_)[rng_.Next() % pool_->size()];
  position_ = 0;
  std::uint32_t length = steps;
  if (workload_->mean_lifetime > 0.0) {
    // Geometric lifetime (>= 1 step) with the workload's mean; memoryless,
    // so the first lifetime needs no special case.
    const double p = 1.0 / workload_->mean_lifetime;
    const double u = 1.0 - rng_.Uniform();  // (0, 1]
    const double extra = std::floor(std::log(u) / std::log(1.0 - p));
    length = static_cast<std::uint32_t>(
        std::min<double>(steps, 1.0 + extra));
  } else if (first) {
    // Full-video viewers: the initial population is spread over the
    // video so reopens arrive at a steady rate from the start.
    position_ = static_cast<std::uint32_t>(rng_.Next() % steps);
  }
  end_ = std::min(steps, position_ + length);
}

std::uint64_t CombineDigests(std::span<const SlotDigest> slots,
                             std::span<const std::uint64_t> steps) {
  SlotDigest all;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    for (int b = 0; b < 8; ++b) {
      all.Byte(static_cast<std::uint8_t>(slots[i].h >> (8 * b)));
      all.Byte(static_cast<std::uint8_t>(steps[i] >> (8 * b)));
    }
  }
  return all.h;
}

std::vector<double> SlotPhases(std::uint64_t seed, std::size_t slots) {
  Rng r{Mix(seed, 0)};
  std::vector<double> phase(slots);
  for (double& p : phase) p = r.Uniform();
  return phase;
}

std::string DatasetName(std::size_t d) {
  return osap::traces::DatasetName(osap::traces::AllDatasetIds().at(d));
}

}  // namespace perfbench

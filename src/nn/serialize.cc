#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/atomic_file.h"

namespace osap::nn {

namespace {

constexpr char kMagic[8] = {'O', 'S', 'A', 'P', 'N', 'N', '0', '1'};

void WriteU64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t ReadU64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("LoadParams: truncated stream");
  return v;
}

}  // namespace

void SaveParams(std::ostream& out, const std::vector<Param*>& params) {
  out.write(kMagic, sizeof(kMagic));
  WriteU64(out, params.size());
  for (const Param* p : params) {
    WriteU64(out, p->value.rows());
    WriteU64(out, p->value.cols());
    out.write(reinterpret_cast<const char*>(p->value.data()),
              static_cast<std::streamsize>(p->value.size() * sizeof(double)));
  }
  if (!out) throw std::runtime_error("SaveParams: stream write failed");
}

void LoadParams(std::istream& in, const std::vector<Param*>& params) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("LoadParams: bad magic (not an OSAP NN file)");
  }
  const std::uint64_t count = ReadU64(in);
  if (count != params.size()) {
    throw std::runtime_error("LoadParams: parameter count mismatch");
  }
  for (Param* p : params) {
    const std::uint64_t rows = ReadU64(in);
    const std::uint64_t cols = ReadU64(in);
    if (rows != p->value.rows() || cols != p->value.cols()) {
      throw std::runtime_error("LoadParams: parameter shape mismatch");
    }
    in.read(reinterpret_cast<char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.size() * sizeof(double)));
    if (!in) throw std::runtime_error("LoadParams: truncated stream");
  }
}

void SaveParamsToFile(const std::filesystem::path& path,
                      const std::vector<Param*>& params) {
  util::WriteFileAtomically(
      path, [&](std::ostream& out) { SaveParams(out, params); });
}

void LoadParamsFromFile(const std::filesystem::path& path,
                        const std::vector<Param*>& params) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("LoadParamsFromFile: cannot open " +
                             path.string());
  }
  LoadParams(in, params);
}

}  // namespace osap::nn

// Binary (de)serialization of parameter sets.
//
// The experiment workbench trains every agent / ensemble member once and
// caches weights on disk so the figure benches are cheap to re-run; this is
// the file format it uses. The format is a magic tag, a parameter count,
// then per parameter (rows, cols, row-major doubles); LoadParams validates
// shapes against the live network so a stale cache fails loudly instead of
// producing garbage predictions. Files are host-endianness (cache files,
// not interchange).
#pragma once

#include <filesystem>
#include <istream>
#include <ostream>
#include <vector>

#include "nn/layers.h"

namespace osap::nn {

/// Writes all parameter values; throws std::runtime_error on stream failure.
void SaveParams(std::ostream& out, const std::vector<Param*>& params);

/// Reads parameter values into the given params; shapes must match exactly.
/// Throws std::runtime_error on format/shape mismatch.
void LoadParams(std::istream& in, const std::vector<Param*>& params);

/// File-path convenience wrappers. Saving creates parent directories and
/// replaces the file atomically (util::WriteFileAtomically).
void SaveParamsToFile(const std::filesystem::path& path,
                      const std::vector<Param*>& params);
void LoadParamsFromFile(const std::filesystem::path& path,
                        const std::vector<Param*>& params);

}  // namespace osap::nn

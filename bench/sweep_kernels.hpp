// The kernels of a sweep grid, resolved the way roccc-explore resolves
// them: `table1` names against kTable1Kernels (with each row's stage-delay
// default), `kernel NAME PATH` files relative to the grid file. Shared by
// roccc-explore and the stock-grid golden test (tests/sweep_points_test.cpp).
#pragma once

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "kernels.hpp"
#include "roccc/explore.hpp"

namespace roccc::bench {

inline bool readTextFile(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  out = buf.str();
  return true;
}

/// Adds the named Table 1 kernels to `grid` (`all` true, or the name
/// "all", adds all nine). False, naming the kernel in `error`, for an
/// unknown name.
inline bool addTable1Kernels(const std::vector<std::string>& names, bool all, SweepGrid& grid,
                             std::string& error) {
  const auto addAll = [&grid] {
    for (const NamedKernel& k : kTable1Kernels) {
      grid.kernels.push_back({k.name, k.source, k.targetStageDelayNs});
    }
  };
  if (all) {
    addAll();
    return true;
  }
  for (const std::string& name : names) {
    if (name == "all") {
      addAll();
      continue;
    }
    const NamedKernel* found = nullptr;
    for (const NamedKernel& k : kTable1Kernels) {
      if (name == k.name) found = &k;
    }
    if (!found) {
      error = "unknown Table 1 kernel '" + name + "'";
      return false;
    }
    grid.kernels.push_back({found->name, found->source, found->targetStageDelayNs});
  }
  return true;
}

/// Adds a parsed grid file's kernels to `grid`: its `table1` kernels, then
/// its `kernel NAME PATH` files, each path relative to the directory of
/// `manifestPath` unless absolute.
inline bool addManifestKernels(const SweepManifest& manifest, const std::string& manifestPath,
                               SweepGrid& grid, std::string& error) {
  if (!addTable1Kernels(manifest.table1, manifest.table1All, grid, error)) return false;
  const std::filesystem::path dir = std::filesystem::path(manifestPath).parent_path();
  for (const auto& kf : manifest.kernelFiles) {
    const std::filesystem::path p = std::filesystem::path(kf.path).is_absolute()
                                        ? std::filesystem::path(kf.path)
                                        : dir / kf.path;
    std::string source;
    if (!readTextFile(p.string(), source)) {
      error = "cannot open kernel file '" + p.string() + "'";
      return false;
    }
    grid.kernels.push_back({kf.name, source, 0});
  }
  return true;
}

} // namespace roccc::bench

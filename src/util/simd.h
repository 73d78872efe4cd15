// Runtime SIMD dispatch shared by every vectorized kernel in the tree:
// the nn batched-inference / backward kernels and the svm batched OC-SVM
// decision scan. It lives in util so that svm (which, per the CMake
// layering, must not depend on nn) can share one dispatch decision with
// the nn kernels.
//
// All AVX2 kernels in this codebase are bit-identical to their scalar
// counterparts by construction (no FMA, every output element keeps its own
// scalar accumulation chain), so dispatch is purely a speed decision:
//   - the CPU must report AVX2, and
//   - the OSAP_NO_AVX2=1 environment variable must not be set (lets CI
//     machines with AVX2 exercise the scalar numerics, and is the
//     escape hatch if a host ever misreports support).
// Tests can additionally force either path in-process to prove the
// scalar/AVX2 equivalence without re-exec.
#pragma once

namespace osap::util {

/// True when the AVX2 kernels should run: CPU support, no OSAP_NO_AVX2=1
/// in the environment, and no active test override to the contrary.
bool UseAvx2();

/// Test hook: forces dispatch to the scalar path (false) or the AVX2 path
/// (true). Forcing AVX2 on a CPU without it still yields the scalar path
/// (running the kernels would fault). Not thread-safe against concurrent
/// kernel launches; intended for single-threaded equivalence tests.
void ForceSimdForTest(bool use_avx2);

/// Restores environment/CPU-based dispatch after ForceSimdForTest.
void ResetSimdForTest();

}  // namespace osap::util

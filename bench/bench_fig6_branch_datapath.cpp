// Reproduces Figures 5 and 6: the alternative-branch kernel and its data
// path with soft nodes (CFG blocks) plus the compiler-added hard nodes —
// the MUX node merging the branch results and the PIPE node copying live
// variables past the branches.
#include <cstdio>

#include "dp/datapath.hpp"
#include "roccc/verify.hpp"

static const char* kIfElseKernel = R"(
void branches(const int16 X1[32], const int16 X2[32], int32 X3[32], int32 X4[32]) {
  int i;
  int a;
  int c;
  for (i = 0; i < 32; i++) {
    c = X1[i] - X2[i];
    if (c < X2[i]) {
      a = X1[i] * X1[i];
    } else {
      a = X1[i] * X2[i] + 3;
    }
    c = c - a;
    X3[i] = c;
    X4[i] = a;
  }
}
)";

int main() {
  using namespace roccc;
  Compiler comp;
  const CompileResult r = comp.compileSource(kIfElseKernel);
  if (!r.ok) {
    std::fprintf(stderr, "%s\n", r.diags.dump().c_str());
    return 1;
  }

  std::printf("Figure 5 - the alternative branch in C (as a streaming kernel):\n%s\n",
              kIfElseKernel);
  std::printf("Figure 6 - the generated data path. Soft nodes mirror the CFG; the MUX and\n");
  std::printf("PIPE nodes are hardware-only (\"hard\") nodes:\n\n");
  std::printf("%s\n", r.datapath.dumpStructure().c_str());

  int softs = 0, muxes = 0, pipes = 0;
  for (const auto& n : r.datapath.nodes) {
    switch (n.kind) {
      case dp::NodeKind::Soft: ++softs; break;
      case dp::NodeKind::Mux: ++muxes; break;
      case dp::NodeKind::Pipe: ++pipes; break;
    }
  }
  std::printf("node census: %d soft (paper Fig 6: nodes 1-4), %d mux (node 7), %d pipe (node 6)\n",
              softs, muxes, pipes);
  std::printf("mux operations (phi merges): %d\n", r.datapath.muxOpCount);
  std::printf("\nFull op-level dump:\n%s\n", r.datapath.dump().c_str());

  // Behavior check on the paper's example values: x1=9, x2=2 -> x3=-14, x4=21.
  interp::KernelIO in;
  for (int i = 0; i < 32; ++i) {
    in.arrays["X1"].push_back(9);
    in.arrays["X2"].push_back(2);
  }
  const KernelVerdict v = verifyKernel(r.kernel.kernelName, kIfElseKernel, r, in, VerifyOptions{});
  if (!v.agree) {
    std::printf("paper values x1=9,x2=2: MISMATCH (%s)\n", v.firstProblem().c_str());
    return 1;
  }
  const long long x3 = v.outputs.arrays.at("X3")[0];
  const long long x4 = v.outputs.arrays.at("X4")[0];
  const bool match = x3 == -14 && x4 == 21;
  std::printf("paper values x1=9,x2=2: x3=%lld x4=%lld (expect -14, 21), %d engines agree -> %s\n",
              x3, x4, v.enginesRun, match ? "MATCH" : "MISMATCH");
  return match ? 0 : 1;
}

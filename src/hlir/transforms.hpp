// Loop-level and module-level transformations (paper section 2 / 4.1):
// constant folding, full & partial loop unrolling, loop strip-mining, loop
// fusion, user-call inlining, and call-to-lookup-table conversion
// ("Function calls will either be inlined or whenever feasible made into a
// lookup table").
//
// All transforms operate on the AST in place and require ast::analyze() to
// have succeeded beforehand. Transforms that change declarations re-run
// analyze() internally to refresh resolution; they report failures through
// the DiagEngine and return false without modifying the module on error.
#pragma once

#include "frontend/ast.hpp"
#include "support/diag.hpp"

namespace roccc::hlir {

/// Folds constant subexpressions everywhere (3*4 -> 12; if(0){...} pruned;
/// fully-constant for bounds kept as literals). Returns number of folds.
int constantFold(ast::Module& m, DiagEngine& diags);

/// Fully unrolls every for-loop in `fn` whose (constant) trip count is at
/// most `maxTrip`, converting it into "a non-iterative block of code"
/// eliminating the loop controller (section 2). Innermost loops unroll
/// first. Returns the number of loops unrolled.
int fullyUnrollLoops(ast::Module& m, ast::Function& fn, DiagEngine& diags, int64_t maxTrip = 1024);

/// Fully unrolls loops nested *inside* another loop (the streaming loop
/// stays; per-element inner loops such as bit_correlator's bit scan become
/// straight-line code the data-path generator accepts). Returns the number
/// of loops unrolled.
int fullyUnrollInnerLoops(ast::Module& m, ast::Function& fn, DiagEngine& diags, int64_t maxTrip = 1024);

/// Partially unrolls the *innermost* loop of `fn` by `factor`. The trip
/// count must be a constant divisible by `factor`. After this transform the
/// loop advances `factor` iterations per trip, widening the data path
/// (the paper's DCT processes 8 outputs per clock this way).
bool unrollInnerLoop(ast::Module& m, ast::Function& fn, int factor, DiagEngine& diags);

/// Strip-mines the innermost loop into blocks of `blockSize` (trip count
/// must be a constant multiple of blockSize): for(i) => for(ii)for(i in
/// block). Used with fusion/unrolling to shape buffer bursts.
bool stripMineInnerLoop(ast::Module& m, ast::Function& fn, int64_t blockSize, DiagEngine& diags);

/// Fuses adjacent top-level loops with identical headers when the second
/// does not read anything the first writes. Returns number of fusions.
int fuseAdjacentLoops(ast::Module& m, ast::Function& fn, DiagEngine& diags);

/// Inlines every call to a module-local function (callees stay in the
/// module). Out-params become local temporaries. Returns number of calls
/// inlined.
int inlineCalls(ast::Module& m, DiagEngine& diags);

/// Converts calls to pure single-input functions into ROCCC_lookup on a
/// synthesized const table, evaluating the callee over the full input
/// domain with the interpreter ("whenever feasible made into a lookup
/// table"). Only applies when the argument type has at most `maxIndexBits`
/// bits. Returns number of calls converted.
int convertCallsToLookupTables(ast::Module& m, DiagEngine& diags, int maxIndexBits = 10);

} // namespace roccc::hlir

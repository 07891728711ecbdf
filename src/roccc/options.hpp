// roccc::OptionRow — the compile-option table.
//
// One row per semantic CompileOptions field: the fields that change what
// the compiler produces, and so exactly the fields the cache key hashes.
// Each row says how the field is spelled (protocol JSON key, CLI flag),
// which values it takes, and where it lives in CompileOptions. Every option
// surface is a loop over the rows:
//   - the cache key (canonicalizeOptions) is every row's protocol value,
//     in table order;
//   - the daemon protocol's options object (compileOptionsFromJson) parses
//     them by JSON key;
//   - roccc-cc, roccc-ccd and roccc-explore take their compile flags from
//     compileFlag(), roccc-client from protocolFlag().
// So any compile one front door can express, every front door can.
//
// Presentation fields (pipeline.printAfter*) are not rows: they never
// change an artifact. `verilog` is a row: it decides whether the result
// holds Verilog text at all.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "roccc/compiler.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

namespace roccc {

enum class OptionId {
  Kernel,
  Unroll,
  AutoUnrollBudget,
  FullUnroll,
  LutConvert,
  Optimize,
  TargetNs,
  Pipeline,
  WidthMode,
  MultStyle,
  TimingModel,
  Verilog,
  VerifyEach,
  TimeoutMs,
  MaxIrNodes,
  MaxUnrollProduct,
  MaxDepth,
  InjectFault,
};

enum class OptionKind {
  Bool,           ///< JSON true/false; the CLI flag sets `flagValue` (a
                  ///< flag with a `valueName` leaves its value to the tool)
  Int,            ///< integer in [min, max]
  PositiveDouble, ///< finite number > 0
  Enum,           ///< one of `tokens`; token i is enum value i
  String,         ///< free text
  FileContents,   ///< text; on the CLI the value names the file holding it
};

/// A pointer to the CompileOptions field a row sets.
using OptionField = std::variant<bool*, int*, int64_t*, double*, std::string*,
                                 dp::BuildOptions::WidthMode*, dp::BuildOptions::MultStyle*>;

struct OptionRow {
  OptionId id;
  const char* key;                 ///< protocol JSON key
  const char* flag;                ///< CLI flag
  const char* valueName = nullptr; ///< CLI value placeholder; null for Bool rows
  const char* help;                ///< one-line --help description
  OptionKind kind;
  int64_t min = 0; ///< Int: inclusive range
  int64_t max = 0;
  std::span<const char* const> tokens = {}; ///< Enum
  bool flagValue = false;                   ///< Bool: what the CLI flag sets
  /// Extra check of a String/FileContents value (null = any text).
  bool (*validate)(const std::string& text, std::string& error) = nullptr;
  OptionField (*field)(CompileOptions&);
};

/// Every row, in canonical (cache-key) order; row i has OptionId i.
std::span<const OptionRow> optionTable();
const OptionRow& optionRow(OptionId id);
/// The row whose JSON key is `key`, or null.
const OptionRow* findOptionByKey(std::string_view key);

/// Sets `row`'s field from a CLI value (ignored for Bool rows; a file name
/// for FileContents rows). False, with what the value must be in `error`,
/// when it is malformed or outside the row's range.
bool setOptionFromText(const OptionRow& row, const char* text, CompileOptions& out,
                       std::string& error);
/// The protocol value a CLI value of `row` stands for, checked against the
/// row's kind and range as setOptionFromText checks it.
bool optionValueFromText(const OptionRow& row, const char* text, json::Value& out,
                         std::string& error);
/// Sets `row`'s field from a protocol value. False with
/// "option '<key>' must be ..." in `error` when the value is rejected.
bool setOptionFromJson(const OptionRow& row, const json::Value& v, CompileOptions& out,
                       std::string& error);
/// `row`'s field as a protocol value (setOptionFromJson's inverse).
json::Value optionToJson(const OptionRow& row, const CompileOptions& options);

/// The CLI flag of row `id`, setting the field in `target`. `help`
/// replaces the row's description where a tool words it differently.
/// `value`, when non-null, also receives the flag's text: the FILE of
/// `--verilog FILE`, which sets a Bool field and names the tool's output.
cli::OptionSpec compileFlag(OptionId id, CompileOptions& target, const char* help = nullptr,
                            std::string* value = nullptr);
/// The CLI flag of row `id` for a protocol client: the value is validated
/// as compileFlag does and stored under the row's key in `options`.
cli::OptionSpec protocolFlag(OptionId id, json::Value& options, const char* help = nullptr,
                             std::string* value = nullptr);

} // namespace roccc

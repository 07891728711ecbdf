#include "roccc/options.hpp"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "support/strings.hpp"
#include "synth/timing.hpp"

namespace roccc {

namespace {

constexpr int64_t kInt64Min = INT64_MIN;
constexpr int64_t kInt64Max = INT64_MAX;

// Declared, PortOpcode, RangeAnalysis
constexpr const char* kWidthModes[] = {"declared", "paper", "range"};
constexpr const char* kMultStyles[] = {"lut", "mult18"};  // Lut, Mult18

bool validTimingModel(const std::string& text, std::string& error) {
  synth::TimingModel model;
  std::string why;
  if (synth::TimingModel::parse(text, model, why)) return true;
  error = "is not a valid timing model (" + why + ")";
  return false;
}

#define ROCCC_FIELD(member) [](CompileOptions& o) -> OptionField { return &o.member; }

using K = OptionKind;

constexpr OptionRow kRows[] = {
    {.id = OptionId::Kernel, .key = "kernel", .flag = "--kernel", .valueName = "NAME",
     .help = "kernel function (default: last function in the file)", .kind = K::String,
     .field = ROCCC_FIELD(kernelName)},
    {.id = OptionId::Unroll, .key = "unroll", .flag = "--unroll", .valueName = "N",
     .help = "partially unroll the streaming loop by N", .kind = K::Int, .min = 1,
     .max = INT_MAX, .field = ROCCC_FIELD(unrollFactor)},
    {.id = OptionId::AutoUnrollBudget, .key = "autoUnrollBudget", .flag = "--auto-unroll-budget",
     .valueName = "N", .help = "keep the largest power-of-two unroll whose estimate fits N slices",
     .kind = K::Int, .min = 0, .max = kInt64Max, .field = ROCCC_FIELD(autoUnrollSliceBudget)},
    {.id = OptionId::FullUnroll, .key = "fullUnroll", .flag = "--no-full-unroll",
     .help = "keep loops nested in the streaming loop (no full unrolling)", .kind = K::Bool,
     .field = ROCCC_FIELD(fullUnrollInnerLoops)},
    {.id = OptionId::LutConvert, .key = "lutConvert", .flag = "--no-lut-convert",
     .help = "inline pure unary callees instead of making lookup tables", .kind = K::Bool,
     .field = ROCCC_FIELD(convertCallsToLuts)},
    {.id = OptionId::Optimize, .key = "optimize", .flag = "--no-optimize",
     .help = "skip the circuit-level scalar optimizations (CSE, DCE, ...)", .kind = K::Bool,
     .field = ROCCC_FIELD(optimize)},
    {.id = OptionId::TargetNs, .key = "targetNs", .flag = "--target-ns", .valueName = "X",
     .help = "pipeline stage delay target in ns (default 4.0); latches are placed to it",
     .kind = K::PositiveDouble, .field = ROCCC_FIELD(dpOptions.targetStageDelayNs)},
    {.id = OptionId::Pipeline, .key = "pipeline", .flag = "--no-pipeline",
     .help = "single combinational stage (no pipelining)", .kind = K::Bool,
     .field = ROCCC_FIELD(dpOptions.pipeline)},
    {.id = OptionId::WidthMode, .key = "widthMode", .flag = "--width-mode", .valueName = "M",
     .help = "bit-width rule: 'range' (default), 'paper' (port size and opcodes) or 'declared'",
     .kind = K::Enum, .tokens = kWidthModes, .field = ROCCC_FIELD(dpOptions.widthMode)},
    {.id = OptionId::MultStyle, .key = "multStyle", .flag = "--mult-style", .valueName = "S",
     .help = "multiplier style: 'lut' (default) or 'mult18'", .kind = K::Enum,
     .tokens = kMultStyles, .field = ROCCC_FIELD(dpOptions.multStyle)},
    {.id = OptionId::TimingModel, .key = "timingModel", .flag = "--timing-model",
     .valueName = "FILE",
     .help = "per-primitive delay/area/energy table (docs/SYNTHESIS.md format)",
     .kind = K::FileContents, .validate = validTimingModel, .field = ROCCC_FIELD(timingModelSpec)},
    {.id = OptionId::Verilog, .key = "verilog", .flag = "--verilog", .valueName = "FILE",
     .help = "also write the Verilog form of the design", .kind = K::Bool, .flagValue = true,
     .field = ROCCC_FIELD(emitVerilog)},
    {.id = OptionId::VerifyEach, .key = "verifyEach", .flag = "--verify-each",
     .help = "run the layer verifier after every pipeline pass", .kind = K::Bool,
     .flagValue = true, .field = ROCCC_FIELD(pipeline.verifyEach)},
    {.id = OptionId::TimeoutMs, .key = "timeoutMs", .flag = "--timeout-ms", .valueName = "N",
     .help = "per-job wall-clock deadline (0 = none; negative = expired)", .kind = K::Int,
     .min = kInt64Min, .max = kInt64Max, .field = ROCCC_FIELD(budget.timeoutMs)},
    {.id = OptionId::MaxIrNodes, .key = "maxIrNodes", .flag = "--max-ir-nodes", .valueName = "N",
     .help = "per-job cap on total live IR nodes (0 = none)", .kind = K::Int, .min = 0,
     .max = kInt64Max, .field = ROCCC_FIELD(budget.maxIrNodes)},
    {.id = OptionId::MaxUnrollProduct, .key = "maxUnrollProduct", .flag = "--max-unroll-product",
     .valueName = "N", .help = "cap on the product of all unroll expansions (0 = none)",
     .kind = K::Int, .min = 0, .max = kInt64Max, .field = ROCCC_FIELD(budget.maxUnrollProduct)},
    {.id = OptionId::MaxDepth, .key = "maxDepth", .flag = "--max-depth", .valueName = "N",
     .help = "parser recursion/nesting depth cap (default 256, 0 = none)", .kind = K::Int,
     .min = 0, .max = INT_MAX, .field = ROCCC_FIELD(budget.maxDepth)},
    {.id = OptionId::InjectFault, .key = "injectFault", .flag = "--inject-fault",
     .valueName = "P", .help = "arm fault point P (see faultPointRegistry)", .kind = K::String,
     .field = ROCCC_FIELD(injectFaultAt)},
};

#undef ROCCC_FIELD

constexpr bool rowsFollowIds() {
  for (size_t i = 0; i < std::size(kRows); ++i) {
    if (static_cast<size_t>(kRows[i].id) != i) return false;
  }
  return true;
}
static_assert(rowsFollowIds(), "optionRow(id) indexes kRows by OptionId");

/// "an integer >= 1", "a number > 0", ...: what a value must be.
std::string requirement(const OptionRow& row) {
  switch (row.kind) {
    case K::Bool: return "a boolean";
    case K::Int: return row.min == kInt64Min ? "an integer" : fmt("an integer >= %0", row.min);
    case K::PositiveDouble: return "a number > 0";
    case K::Enum: {
      std::string list = fmt("\"%0\"", row.tokens[0]);
      for (size_t i = 1; i < row.tokens.size(); ++i) {
        list += fmt(i + 1 < row.tokens.size() ? ", \"%0\"" : " or \"%0\"", row.tokens[i]);
      }
      return list;
    }
    case K::String:
    case K::FileContents: return "a string";
  }
  return "";
}

/// Checks `v` against the row's kind and range and stores it: the one
/// validation both doors share. On failure `error` says what `v` must be.
bool assign(const OptionRow& row, const json::Value& v, CompileOptions& o, std::string& error) {
  const OptionField field = row.field(o);
  switch (row.kind) {
    case K::Bool:
      if (!v.isBool()) break;
      *std::get<bool*>(field) = v.asBool();
      return true;
    case K::Int:
      if (!v.isNumber() || !v.isIntegral() || v.asInt() < row.min) break;
      if (v.asInt() > row.max) {
        error = fmt("must be an integer <= %0", row.max);
        return false;
      }
      std::visit(
          [n = v.asInt()](auto* p) {
            using T = std::remove_pointer_t<decltype(p)>;
            if constexpr (std::is_same_v<T, int> || std::is_same_v<T, int64_t>) {
              *p = static_cast<T>(n);
            }
          },
          field);
      return true;
    case K::PositiveDouble:
      if (!v.isNumber() || !std::isfinite(v.asDouble()) || v.asDouble() <= 0) break;
      *std::get<double*>(field) = v.asDouble();
      return true;
    case K::Enum:
      for (size_t i = 0; v.isString() && i < row.tokens.size(); ++i) {
        if (v.asString() != row.tokens[i]) continue;
        std::visit(
            [i](auto* p) {
              using T = std::remove_pointer_t<decltype(p)>;
              if constexpr (std::is_enum_v<T>) *p = static_cast<T>(i);
            },
            field);
        return true;
      }
      break;
    case K::String:
    case K::FileContents:
      if (!v.isString()) break;
      if (row.validate && !row.validate(v.asString(), error)) return false;
      *std::get<std::string*>(field) = v.asString();
      return true;
  }
  error = "must be " + requirement(row);
  return false;
}

/// A CLI value as the protocol value it stands for; false when malformed.
bool textToJson(const OptionRow& row, const char* text, json::Value& out, std::string& error) {
  switch (row.kind) {
    case K::Bool: out = json::Value::boolean(row.flagValue); return true;
    case K::Int: {
      int64_t n = 0;
      if (!cli::parseInt(text, n)) break;
      out = json::Value::number(n);
      return true;
    }
    case K::PositiveDouble: {
      char* end = nullptr;
      const double d = std::strtod(text, &end);
      if (end == text || *end != '\0') break;
      out = json::Value::number(d);
      return true;
    }
    case K::Enum:
    case K::String: out = json::Value::string(text); return true;
    case K::FileContents: {
      std::ifstream in(text);
      if (!in) {
        error = "cannot be opened";
        return false;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      out = json::Value::string(buf.str());
      return true;
    }
  }
  error = "must be " + requirement(row);
  return false;
}

} // namespace

std::span<const OptionRow> optionTable() { return kRows; }

const OptionRow& optionRow(OptionId id) { return kRows[static_cast<size_t>(id)]; }

const OptionRow* findOptionByKey(std::string_view key) {
  for (const OptionRow& row : kRows) {
    if (key == row.key) return &row;
  }
  return nullptr;
}

bool setOptionFromText(const OptionRow& row, const char* text, CompileOptions& out,
                       std::string& error) {
  json::Value v;
  return textToJson(row, text, v, error) && assign(row, v, out, error);
}

bool optionValueFromText(const OptionRow& row, const char* text, json::Value& out,
                         std::string& error) {
  CompileOptions checked;
  return textToJson(row, text, out, error) && assign(row, out, checked, error);
}

bool setOptionFromJson(const OptionRow& row, const json::Value& v, CompileOptions& out,
                       std::string& error) {
  if (assign(row, v, out, error)) return true;
  error = fmt("option '%0' %1", row.key, error);
  return false;
}

json::Value optionToJson(const OptionRow& row, const CompileOptions& options) {
  // The accessor hands out a mutable pointer; this only reads through it.
  return std::visit(
      [&row](const auto* p) {
        using T = std::remove_cvref_t<decltype(*p)>;
        if constexpr (std::is_same_v<T, bool>) return json::Value::boolean(*p);
        else if constexpr (std::is_same_v<T, double>) return json::Value::number(*p);
        else if constexpr (std::is_same_v<T, std::string>) return json::Value::string(*p);
        else if constexpr (std::is_enum_v<T>)
          return json::Value::string(row.tokens[static_cast<size_t>(*p)]);
        else return json::Value::number(static_cast<int64_t>(*p));
      },
      row.field(const_cast<CompileOptions&>(options)));
}

cli::OptionSpec compileFlag(OptionId id, CompileOptions& target, const char* help,
                            std::string* value) {
  const OptionRow& row = optionRow(id);
  return {row.flag, row.valueName, help ? help : row.help,
          [&row, &target, value](const char* v, std::string& error) {
            if (!setOptionFromText(row, v, target, error)) return false;
            if (value) *value = v;
            return true;
          }};
}

cli::OptionSpec protocolFlag(OptionId id, json::Value& options, const char* help,
                             std::string* value) {
  const OptionRow& row = optionRow(id);
  return {row.flag, row.valueName, help ? help : row.help,
          [&row, &options, value](const char* v, std::string& error) {
            json::Value parsed;
            if (!optionValueFromText(row, v, parsed, error)) return false;
            options.set(row.key, std::move(parsed));
            if (value) *value = v;
            return true;
          }};
}

} // namespace roccc

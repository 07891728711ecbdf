#include "rtl/system.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "rtl/vcd.hpp"
#include "support/strings.hpp"

namespace roccc::rtl {

double SystemStats::steadyStateThroughput() const {
  if (enabledCycles == 0) return 0;
  return static_cast<double>(outputElems) / static_cast<double>(enabledCycles);
}

PortBinding PortBinding::resolve(const hlir::KernelInfo& kernel, const dp::DataPath& dp) {
  PortBinding b;
  for (const auto& port : dp.inputs) {
    InSource src;
    bool found = false;
    for (size_t s = 0; s < kernel.inputs.size() && !found; ++s) {
      const auto& st = kernel.inputs[s];
      for (size_t a = 0; a < st.scalarNames.size(); ++a) {
        if (st.scalarNames[a] == port.name) {
          src.kind = InSource::Kind::Window;
          src.stream = s;
          src.access = a;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      for (const auto& si : kernel.scalarInputs) {
        if (si.name != port.name) continue;
        if (si.isInduction) {
          src.kind = InSource::Kind::Induction;
          src.loop = si.loop;
        } else {
          src.kind = InSource::Kind::Scalar;
          src.scalarName = si.name;
        }
        found = true;
        break;
      }
    }
    if (!found) throw std::runtime_error(fmt("no source for data-path input '%0'", port.name));
    b.inputs.push_back(std::move(src));
  }
  for (const auto& port : dp.outputs) {
    OutSink sink;
    bool found = false;
    for (size_t s = 0; s < kernel.outputs.size() && !found; ++s) {
      const auto& st = kernel.outputs[s];
      for (size_t a = 0; a < st.scalarNames.size(); ++a) {
        if (st.scalarNames[a] == port.name) {
          sink.kind = OutSink::Kind::Window;
          sink.stream = s;
          sink.access = a;
          found = true;
          break;
        }
      }
    }
    if (!found) {
      sink.kind = OutSink::Kind::Scalar;
      sink.scalarName = port.name;
    }
    b.outputs.push_back(std::move(sink));
  }
  return b;
}

StreamTrace traceStreamingModel(const hlir::KernelInfo& kernel, const dp::DataPath& dp,
                                const interp::KernelIO& io, const StreamStep& step) {
  const PortBinding binding = PortBinding::resolve(kernel, dp);
  StreamTrace trace;

  // Stream storage, resolved once: a copy of each input array and a
  // zero-initialized output array (matching the output BRAMs of the
  // cycle-accurate system), in kernel.inputs / kernel.outputs order.
  std::vector<std::vector<int64_t>> inData, outData;
  for (const auto& st : kernel.inputs) {
    const auto it = io.arrays.find(st.arrayName);
    if (it == io.arrays.end()) {
      throw std::runtime_error(fmt("input array '%0' not bound", st.arrayName));
    }
    inData.push_back(it->second);
  }
  for (const auto& st : kernel.outputs) {
    int64_t n = 1;
    for (int64_t d : st.dims) n *= d;
    outData.emplace_back(static_cast<size_t>(n), 0);
  }
  // Loop-invariant scalar inputs, by dp input port.
  std::vector<int64_t> scalarIn(binding.inputs.size(), 0);
  for (size_t p = 0; p < binding.inputs.size(); ++p) {
    if (binding.inputs[p].kind != PortBinding::InSource::Kind::Scalar) continue;
    const auto f = io.scalars.find(binding.inputs[p].scalarName);
    if (f == io.scalars.end()) {
      throw std::runtime_error(fmt("scalar input '%0' not bound", binding.inputs[p].scalarName));
    }
    scalarIn[p] = f->second;
  }
  const auto windowAddress = [](const hlir::Stream& st, size_t access, const std::vector<int64_t>& ivs,
                                const std::vector<int64_t>& data) {
    const int64_t addr = st.flatAddress(access, ivs);
    if (addr < 0 || addr >= static_cast<int64_t>(data.size())) {
      throw std::runtime_error(fmt("window address %0 out of '%1' bounds", addr, st.arrayName));
    }
    return static_cast<size_t>(addr);
  };

  std::map<std::string, Value> feedback;
  for (const auto& fb : kernel.feedbacks) feedback[fb.name] = Value::fromInt(fb.type, fb.initial);

  std::map<std::string, int64_t> lastScalarOut;

  IterationWalker walker(kernel.loops);
  const int64_t total = walker.totalIterations();
  trace.inputs.reserve(static_cast<size_t>(total));
  trace.outputs.reserve(static_cast<size_t>(total));
  std::vector<int64_t> ivs;
  for (int64_t t = 0; t < total; ++t) {
    walker.ivsAt(t, ivs);

    std::vector<Value> inputs(dp.inputs.size());
    for (size_t p = 0; p < binding.inputs.size(); ++p) {
      const auto& src = binding.inputs[p];
      const ScalarType ty = dp.inputs[p].type;
      switch (src.kind) {
        case PortBinding::InSource::Kind::Window: {
          const auto& data = inData[src.stream];
          inputs[p] = Value::fromInt(ty, data[windowAddress(kernel.inputs[src.stream], src.access, ivs, data)]);
          break;
        }
        case PortBinding::InSource::Kind::Scalar:
          inputs[p] = Value::fromInt(ty, scalarIn[p]);
          break;
        case PortBinding::InSource::Kind::Induction:
          inputs[p] = Value::fromInt(ty, ivs[static_cast<size_t>(src.loop)]);
          break;
      }
    }

    std::vector<Value> outputs;
    const std::map<std::string, Value>& next = step(inputs, feedback, outputs);
    if (outputs.size() != dp.outputs.size()) {
      throw std::runtime_error(fmt("step produced %0 outputs, %1 ports expected", outputs.size(),
                                   dp.outputs.size()));
    }

    for (size_t p = 0; p < binding.outputs.size(); ++p) {
      const auto& sink = binding.outputs[p];
      const int64_t v = outputs[p].convertTo(dp.outputs[p].type).toInt();
      if (sink.kind == PortBinding::OutSink::Kind::Window) {
        auto& data = outData[sink.stream];
        data[windowAddress(kernel.outputs[sink.stream], sink.access, ivs, data)] = v;
      } else {
        lastScalarOut[sink.scalarName] = v;
      }
    }
    feedback = next;

    trace.inputs.push_back(std::move(inputs));
    trace.outputs.push_back(std::move(outputs));
  }

  for (size_t s = 0; s < kernel.outputs.size(); ++s) {
    trace.final.arrays[kernel.outputs[s].arrayName] = std::move(outData[s]);
  }
  for (const auto& [n, v] : lastScalarOut) trace.final.scalars[n] = v;
  for (const auto& [n, v] : feedback) trace.final.scalars[n] = v.toInt();
  trace.finalFeedback = feedback;
  return trace;
}

StreamStep interpreterStep(const hlir::KernelInfo& kernel, const dp::DataPath& dp,
                           interp::Interpreter& sim) {
  // Call layout: the dp input ports, then the feedback registers as global
  // overrides; the dp output ports, then the feedback registers' finals.
  // `next` is filled in place, its keys (and so its order) fixed here.
  std::map<std::string, Value> next;
  for (const auto& fb : dp.feedbacks) next[fb.name] = Value::fromInt(fb.type, fb.initial);
  std::vector<std::string> inNames, outNames;
  std::vector<Value> initial;
  for (const auto& port : dp.inputs) inNames.push_back(port.name);
  for (const auto& port : dp.outputs) outNames.push_back(port.name);
  for (const auto& [name, v] : next) {
    inNames.push_back(name);
    outNames.push_back(name);
    initial.push_back(v);
  }
  return [&dp, call = sim.prepare(kernel.dpName, inNames, outNames), next = std::move(next),
          initial = std::move(initial), in = std::vector<Value>(inNames.size()),
          out = std::vector<Value>(outNames.size())](
             const std::vector<Value>& inputs, const std::map<std::string, Value>& feedback,
             std::vector<Value>& outputs) mutable -> const std::map<std::string, Value>& {
    if (inputs.size() != dp.inputs.size()) {
      throw std::runtime_error(fmt("step given %0 inputs, %1 ports expected", inputs.size(),
                                   dp.inputs.size()));
    }
    std::copy(inputs.begin(), inputs.end(), in.begin());
    size_t r = 0;
    for (const auto& [name, v] : next) {
      // A register the caller does not thread starts from its initial value.
      const auto f = feedback.find(name);
      in[inputs.size() + r] = f != feedback.end() ? f->second : initial[r];
      ++r;
    }
    call(in, out);
    outputs.resize(dp.outputs.size());
    for (size_t p = 0; p < dp.outputs.size(); ++p) outputs[p] = out[p].convertTo(dp.outputs[p].type);
    r = dp.outputs.size();
    for (auto& [name, v] : next) v = out[r++].convertTo(v.type());
    return next;
  };
}

System::System(const hlir::KernelInfo& kernel, const dp::DataPath& dp, const Module& module,
               SystemOptions options)
    : kernel_(kernel), dp_(dp), module_(module), opt_(options) {}

interp::KernelIO System::run(const interp::KernelIO& io) {
  stats_ = SystemStats{};
  stats_.pipelineStages = dp_.stageCount;

  IterationWalker walker(kernel_.loops);
  const int64_t total = walker.totalIterations();

  // --- memories -------------------------------------------------------------
  std::vector<Bram> inBrams;
  for (const auto& st : kernel_.inputs) {
    const auto it = io.arrays.find(st.arrayName);
    if (it == io.arrays.end()) {
      throw std::runtime_error(fmt("input array '%0' not bound", st.arrayName));
    }
    int64_t n = 1;
    for (int64_t d : st.dims) n *= d;
    if (static_cast<int64_t>(it->second.size()) != n) {
      throw std::runtime_error(fmt("array '%0': %1 elements bound, %2 expected", st.arrayName,
                                   it->second.size(), n));
    }
    inBrams.emplace_back(st.elemType, it->second);
  }
  std::vector<Bram> outBrams;
  for (const auto& st : kernel_.outputs) {
    int64_t n = 1;
    for (int64_t d : st.dims) n *= d;
    outBrams.emplace_back(st.elemType, static_cast<size_t>(n));
  }

  // --- buffers / collectors ----------------------------------------------------
  std::vector<std::unique_ptr<InputBuffer>> buffers;
  std::vector<NaiveBuffer*> naive;
  for (const auto& st : kernel_.inputs) {
    if (opt_.useSmartBuffer) {
      buffers.push_back(std::make_unique<SmartBuffer>(st, walker, opt_.inputBusElems));
    } else {
      auto nb = std::make_unique<NaiveBuffer>(st, walker, opt_.inputBusElems);
      naive.push_back(nb.get());
      buffers.push_back(std::move(nb));
    }
  }
  std::vector<OutputCollector> collectors;
  for (const auto& st : kernel_.outputs) {
    const int bus = opt_.outputBusElems > 0 ? opt_.outputBusElems : st.accessCount();
    collectors.emplace_back(st, walker, bus);
  }

  // --- port wiring ----------------------------------------------------------------
  // dp port -> system role (shared with the streaming-model tracer and,
  // through it, the conformance engines and generated testbenches).
  const PortBinding binding = PortBinding::resolve(kernel_, dp_);
  // Loop-invariant scalar values, resolved once per run.
  std::vector<Value> scalarValues(binding.inputs.size());
  for (size_t p = 0; p < binding.inputs.size(); ++p) {
    const auto& src = binding.inputs[p];
    if (src.kind != PortBinding::InSource::Kind::Scalar) continue;
    const auto it = io.scalars.find(src.scalarName);
    if (it == io.scalars.end()) {
      throw std::runtime_error(fmt("scalar input '%0' not bound", src.scalarName));
    }
    scalarValues[p] = Value::fromInt(dp_.inputs[p].type, it->second);
  }

  // --- main clock loop ---------------------------------------------------------------
  // Either engine clocks the data path; they are differentially tested to be
  // bit-exact (tests/fastsim_diff_test.cpp), so the choice only affects speed.
  std::unique_ptr<NetlistSim> refSim;
  std::unique_ptr<FastSim> fastSim;
  if (opt_.engine == SimEngine::Reference) {
    refSim = std::make_unique<NetlistSim>(module_);
    refSim->reset();
  } else {
    fastSim = std::make_unique<FastSim>(module_);
  }
  auto setSimInput = [&](size_t port, const Value& v) {
    if (refSim) {
      refSim->setInput(port, v);
    } else {
      fastSim->setInput(port, v);
    }
  };
  auto evalSim = [&] { refSim ? refSim->eval() : fastSim->eval(); };
  auto tickSim = [&](bool en) { refSim ? refSim->tick(en) : fastSim->tick(en); };
  auto simOutput = [&](size_t port) { return refSim ? refSim->output(port) : fastSim->output(port); };
  std::unique_ptr<VcdRecorder> vcdRecorder;
  if (opt_.recordVcd) vcdRecorder = std::make_unique<VcdRecorder>(module_, /*onlyNamed=*/true);
  const int latency = module_.latency;

  int64_t issued = 0;
  int64_t captured = 0;
  int64_t enabledCount = 0;
  std::map<std::string, int64_t> scalarOuts;
  std::map<std::string, int64_t> fbFinal;
  for (const auto& fb : dp_.feedbacks) fbFinal[fb.name] = fb.initial;

  auto allDrained = [&]() {
    for (const auto& c : collectors) {
      if (!c.drained()) return false;
    }
    return true;
  };

  // Per-cycle scratch, reused so the clock loop does not allocate. An
  // output window slot is either written on every capture or never, so
  // reuse carries no value over from an earlier iteration.
  std::vector<std::vector<Value>> windows(buffers.size());
  std::vector<std::vector<Value>> outWindows(collectors.size());
  for (size_t s = 0; s < kernel_.outputs.size(); ++s) {
    outWindows[s].assign(kernel_.outputs[s].scalarNames.size(), Value());
  }
  std::vector<int64_t> ivs;
  int64_t cycle = 0;
  while (captured < total || !allDrained()) {
    if (++cycle > opt_.cycleLimit) {
      throw std::runtime_error(fmt("cycle limit exceeded (%0 cycles, %1/%2 iterations)",
                                   opt_.cycleLimit, captured, total));
    }
    // Memory-side work.
    for (size_t b = 0; b < buffers.size(); ++b) buffers[b]->cycle(inBrams[b]);
    for (size_t c = 0; c < collectors.size(); ++c) collectors[c].cycle(outBrams[c]);

    bool canIssue = issued < total;
    for (size_t b = 0; b < buffers.size() && canIssue; ++b) {
      if (!buffers[b]->windowReady(issued)) canIssue = false;
    }
    for (const auto& c : collectors) {
      if (!c.hasRoom()) canIssue = false;
    }
    const bool flushing = issued == total && captured < total;
    const bool enable = canIssue || flushing;

    // Valid strobe: high exactly when a real iteration enters the pipe.
    if (!dp_.feedbacks.empty()) {
      setSimInput(binding.inputs.size(), Value::ofBool(canIssue));
    }
    if (canIssue) {
      // Present iteration `issued` to the data path.
      for (size_t b = 0; b < buffers.size(); ++b) {
        buffers[b]->window(inBrams[b], issued, windows[b]);
      }
      walker.ivsAt(issued, ivs);
      for (size_t p = 0; p < binding.inputs.size(); ++p) {
        const auto& src = binding.inputs[p];
        switch (src.kind) {
          case PortBinding::InSource::Kind::Window:
            setSimInput(p, windows[src.stream][src.access]);
            break;
          case PortBinding::InSource::Kind::Scalar:
            setSimInput(p, scalarValues[p]);
            break;
          case PortBinding::InSource::Kind::Induction:
            setSimInput(p, Value::ofInt(ivs[static_cast<size_t>(src.loop)]));
            break;
        }
      }
    }

    evalSim();
    if (vcdRecorder) {
      if (refSim) {
        vcdRecorder->sample(*refSim);
      } else {
        vcdRecorder->sample(*fastSim);
      }
    }

    if (enable) {
      const int64_t tOut = enabledCount - latency;
      if (tOut >= 0 && tOut < total) {
        // Capture iteration tOut's results (combinational at the final stage).
        for (size_t p = 0; p < binding.outputs.size(); ++p) {
          const auto& sink = binding.outputs[p];
          const Value v = simOutput(p);
          if (sink.kind == PortBinding::OutSink::Kind::Window) {
            outWindows[sink.stream][sink.access] = v;
          } else {
            scalarOuts[sink.scalarName] = v.toInt();
          }
        }
        for (size_t c = 0; c < collectors.size(); ++c) {
          collectors[c].push(tOut, outWindows[c]);
          stats_.outputElems += static_cast<int64_t>(kernel_.outputs[c].scalarNames.size());
        }
        ++captured;
      }
      tickSim(true);
      ++enabledCount;
      ++stats_.enabledCycles;
      if (canIssue) {
        for (NaiveBuffer* nb : naive) nb->advance();
        ++issued;
      }
      // Snapshot feedback registers whose latest update belonged to a valid
      // iteration (flush cycles would otherwise clobber them). eval is a pure
      // function of register state and inputs, and every cycle evaluates
      // again before it reads or latches, so without feedback registers this
      // post-edge pass would read nothing.
      if (!dp_.feedbacks.empty()) {
        evalSim();
        for (size_t f = 0; f < dp_.feedbacks.size(); ++f) {
          const auto& fb = dp_.feedbacks[f];
          const int64_t iterOfUpdate = (enabledCount - 1) - fb.stage;
          if (iterOfUpdate >= 0 && iterOfUpdate < total) {
            fbFinal[fb.name] = simOutput(dp_.outputs.size() + f).toInt();
          }
        }
      }
    } else {
      tickSim(false);
      ++stats_.stallCycles;
    }
  }

  if (vcdRecorder) vcd_ = vcdRecorder->render();
  stats_.cycles = cycle;
  stats_.iterations = total;
  for (size_t b = 0; b < buffers.size(); ++b) {
    stats_.bramReads += buffers[b]->fetchCount();
    stats_.bufferCapacityElems += buffers[b]->capacityElems();
  }
  for (const auto& bram : outBrams) stats_.bramWrites += bram.writes;

  // --- results --------------------------------------------------------------------
  interp::KernelIO out;
  for (size_t s = 0; s < kernel_.outputs.size(); ++s) {
    out.arrays[kernel_.outputs[s].arrayName] = outBrams[s].contents();
  }
  for (const auto& [n, v] : scalarOuts) out.scalars[n] = v;
  for (const auto& [n, v] : fbFinal) out.scalars[n] = v;
  return out;
}

SystemStats measureSystem(const hlir::KernelInfo& kernel, const dp::DataPath& dp,
                          const Module& module, const interp::KernelIO& inputs,
                          const SystemOptions& options) {
  System system(kernel, dp, module, options);
  system.run(inputs);
  return system.stats();
}

} // namespace roccc::rtl

// End-to-end benchmark program for the xqp engine.
//
// One process runs one workload with a single client thread in a closed
// loop, checks every output against an independent reference, and prints a
// human-readable report followed by one JSON line (the last line of
// stdout):
//
//   xqbench --workload xmark|messages|cold_start --seed N --seconds S
//           --trace 0|1 --scratch DIR [--trace-out FILE] [--tiny]
//           [--corrupt-reference]
//
// --trace 0 times the workload with the metrics registry off and prints the
// end-to-end metrics. --trace 1 first repeats that untraced timing, then
// runs the same requests again with the registry on and a span around
// every call into a layer, and prints the per-layer metrics. The
// reference output of every request is the unoptimized plan on the lazy
// backend with indexes off, computed once outside timing. perfbench/run.py
// builds this binary and is the entry point; METRICS.md defines every
// metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "base/metrics.h"
#include "engine.h"
#include "exec/item.h"
#include "opt/access_path.h"
#include "opt/inline_functions.h"
#include "opt/properties.h"
#include "opt/rewriter.h"
#include "query/normalize.h"
#include "query/parser.h"
#include "vm/bytecode.h"
#include "vm/compiler.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xml/document.h"

extern char** environ;

namespace xqp {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// Statistics.

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * double(v.size() - 1);
  size_t lo = size_t(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / double(v.size()));
}

double Mean(double total, double count) {
  return count > 0 ? total / count : 0;
}

// ---------------------------------------------------------------------------
// Report: named metrics with units, printed in insertion order.

struct Metric {
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, {value, unit}});
  }
  const std::vector<std::pair<std::string, Metric>>& metrics() const {
    return metrics_;
  }

 private:
  std::vector<std::pair<std::string, Metric>> metrics_;
};

// ---------------------------------------------------------------------------
// Output checking: every timed operation is compared byte for byte with the
// reference; a non-OK Status or a mismatch is a failed operation.

class OpTally {
 public:
  void Record(const Status& status, std::string_view got,
              std::string_view want, const std::string& what) {
    ++attempted_;
    if (status.ok() && got == want) return;
    ++failed_;
    if (failed_ <= 5) {
      std::fprintf(stderr, "xqbench: FAILED op %s: %s\n", what.c_str(),
                   status.ok() ? "output differs from the reference"
                               : status.ToString().c_str());
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---------------------------------------------------------------------------
// Tracing: spans recorded by this file around its calls into each layer.
// Spans stay in memory and are written out when the run ends.

struct Span {
  const char* name;
  const char* layer;
  int64_t start_ns;
  int64_t end_ns;
  int parent;  // Index into the span table; -1 for a root.
  uint64_t request;  // 0 = set-up, else the traced request's id.
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }

  void BeginRequest() { ++request_; }

  int Open(const char* name, const char* layer) {
    if (!on_) return -1;
    spans_.push_back({name, layer, Now(), 0, current_, request_});
    current_ = int(spans_.size() - 1);
    return current_;
  }
  void Close(int id) {
    if (id < 0) return;
    spans_[id].end_ns = Now();
    current_ = spans_[id].parent;
  }

  /// Per-layer self time (span duration minus the part covered by its
  /// children), summed over the spans of traced requests, in ms.
  std::map<std::string, double> SelfMsByLayer() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.request == 0) continue;
      out[s.layer] += double(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    }
    return out;
  }

  /// One JSON object per span.
  void Write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"layer\":\"" << s.layer
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int current_ = -1;
  uint64_t request_ = 0;
};

/// Runs `fn` inside a span and stores its wall time (ms) in `*ms`. With the
/// tracer off only the wall time is taken.
template <typename F>
auto Call(Tracer* tracer, const char* name, const char* layer, double* ms,
          F&& fn) {
  int id = tracer->Open(name, layer);
  Clock::time_point start = Clock::now();
  auto result = fn();
  *ms = MsSince(start);
  tracer->Close(id);
  return result;
}

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer)
      : tracer_(tracer), id_(tracer->Open(name, layer)) {}
  ~ScopedSpan() { tracer_->Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Engine counters read around each traced call (MetricsRegistry deltas).

constexpr const char* kCounterNames[] = {
    "parse.events",        "index.synopsis_hits",
    "index.value_hits",    "index.fallbacks",
    "index.bytes",         "planner.nav",
    "planner.sjoin",       "planner.twig",
    "planner.index",       "join.parallel.dispatched",
    "twig.parallel.dispatched", "sort.ddo.items",
    "vm.instructions",     "vm.bailouts",
    "vm.fallbacks",        "lazy.path.blocking",
    "lazy.path.streaming",
};
constexpr size_t kNumCounters = std::size(kCounterNames);

class Counters {
 public:
  Counters() {
    auto& reg = metrics::MetricsRegistry::Global();
    for (size_t i = 0; i < kNumCounters; ++i) {
      counters_[i] = reg.counter(kCounterNames[i]);
    }
  }

  /// Adds the counter movement during `fn()` to the running totals.
  template <typename F>
  auto Around(F&& fn) {
    uint64_t before[kNumCounters];
    for (size_t i = 0; i < kNumCounters; ++i) before[i] = counters_[i]->Value();
    auto result = fn();
    for (size_t i = 0; i < kNumCounters; ++i) {
      totals_[kCounterNames[i]] += double(counters_[i]->Value() - before[i]);
    }
    return result;
  }

  double Total(const std::string& name) const {
    auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second;
  }

 private:
  metrics::Counter* counters_[kNumCounters];
  std::map<std::string, double> totals_;
};

// ---------------------------------------------------------------------------
// Per-layer measurements gathered by a traced run.

struct LayerSamples {
  std::vector<double> parse_ms;
  double parse_bytes = 0;
  double parse_total_ms = 0;
  double parses = 0;
  std::vector<double> serialize_us;
  double output_bytes = 0;
  double serialize_total_ms = 0;
  std::vector<double> index_build_ms;
  double index_builds = 0;
  std::vector<double> tag_index_build_ms;
  std::vector<double> compile_us;
  std::vector<double> query_parse_us;
  std::vector<double> normalize_us;
  std::vector<double> optimize_us;
  double rewrites_fired = 0;
  double compiles = 0;
  std::vector<double> vm_lower_us;
  double vm_code_size = 0;
  double vm_requests = 0;
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  std::vector<double> snapshot_bytes;
  std::vector<double> route_us;
  std::vector<double> transform_us;
  double requests = 0;
  double overhead_ratio = 0;
  std::map<std::string, std::vector<double>> exec_ms;  // "lazy.Q1" -> ms
};

/// One parse sample covering `docs` documents of `bytes` in total.
void AddParse(LayerSamples* s, double ms, size_t bytes, int docs) {
  s->parse_ms.push_back(ms);
  s->parse_total_ms += ms;
  s->parse_bytes += double(bytes);
  s->parses += docs;
}

void AddSerialize(LayerSamples* s, double ms, size_t bytes) {
  s->serialize_us.push_back(ms * 1e3);
  s->serialize_total_ms += ms;
  s->output_bytes += double(bytes);
}

/// Direct calls into the compile layers on a fresh module, step for step
/// what XQueryEngine::Compile does with default CompileOptions (parse,
/// normalize; rewrite, inline fixpoint, analysis and access-path annotation
/// of functions, globals and body) and, for the vm backend, the bytecode
/// lowering that Execute does on first use.
Status SplitCompile(Tracer* tracer, XQueryEngine* engine,
                    std::string_view text, bool lower, LayerSamples* s) {
  ScopedSpan split(tracer, "compile.split", "bench");
  const EngineOptions& options = engine->options();
  double ms = 0;
  auto parsed = Call(tracer, "query.parse", "query", &ms, [&] {
    return ParseQuery(text, options.default_limits.max_expr_depth);
  });
  s->query_parse_us.push_back(ms * 1e3);
  if (!parsed.ok()) return parsed.status();
  ParsedModule* m = parsed.value().get();
  Status st = Call(tracer, "query.normalize", "query", &ms,
                   [&] { return NormalizeModule(m); });
  s->normalize_us.push_back(ms * 1e3);
  if (!st.ok()) return st;
  st = Call(tracer, "opt.optimize", "opt", &ms, [&]() -> Status {
    RewriterOptions rewriter = XQueryEngine::CompileOptions().rewriter;
    if (!options.enable_indexes) rewriter.index_paths = false;
    XQP_ASSIGN_OR_RETURN(auto stats, OptimizeModule(m, rewriter));
    for (const auto& [rule, n] : stats) s->rewrites_fired += n;
    if (rewriter.function_inlining) {
      XQP_RETURN_NOT_OK(
          InlineSmallFunctions(m, rewriter.inline_size_limit).status());
    }
    for (UserFunction& fn : m->functions) {
      if (fn.body != nullptr) AnalyzeExpr(fn.body.get(), m);
    }
    for (GlobalVariable& g : m->globals) {
      if (g.init != nullptr) AnalyzeExpr(g.init.get(), m);
    }
    AnalyzeExpr(m->body.get(), m);
    if (!options.enable_indexes) return Status::OK();
    IndexPeek peek = [engine](const std::string& uri) {
      return engine->PeekDocumentIndexes(uri);
    };
    for (UserFunction& fn : m->functions) {
      if (fn.body != nullptr) {
        AnnotateAccessPaths(fn.body.get(), peek, options.force_access_path);
      }
    }
    for (GlobalVariable& g : m->globals) {
      if (g.init != nullptr) {
        AnnotateAccessPaths(g.init.get(), peek, options.force_access_path);
      }
    }
    AnnotateAccessPaths(m->body.get(), peek, options.force_access_path);
    return Status::OK();
  });
  s->optimize_us.push_back(ms * 1e3);
  s->compiles += 1;
  if (!st.ok()) return st;
  if (!lower) return Status::OK();
  auto program = Call(tracer, "vm.lower", "vm", &ms,
                      [&] { return vm::CompileProgram(*m); });
  s->vm_lower_us.push_back(ms * 1e3);
  if (!program.ok()) return program.status();
  s->vm_code_size += double(program.value()->code.size());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Host probe: a fixed walk of dependent loads over a 4 MB table, timed
// before every set-up and between passes of the untraced loop. On a shared
// host the speed of the whole machine drifts by tens of percent over
// minutes; the engine's latency divided by the probe's time from the same
// run cancels most of that drift, and no change to xqp can move the probe.
// Each sample is timed as eight short legs, so a preemption spoils one leg
// of eight and the median over a run is well sampled.

class HostProbe {
 public:
  HostProbe() : table_(kTableSize) {
    for (size_t i = 0; i < kTableSize; ++i) {
      table_[i] = uint32_t(i * 2654435761u);
    }
  }

  void Sample() {
    uint32_t j = 0;
    for (size_t leg = 0; leg < kLegs; ++leg) {
      Clock::time_point t0 = Clock::now();
      for (size_t i = leg * kLegSteps; i < (leg + 1) * kLegSteps; ++i) {
        j ^= table_[(j + i) & (kTableSize - 1)];
      }
      legs_.push_back(MsSince(t0));
    }
    sink_ = j;
  }

  /// Median time of one leg.
  double MedianMs() const { return Median(legs_); }
  const std::vector<double>& legs() const { return legs_; }

 private:
  static constexpr size_t kTableSize = size_t{1} << 20;  // Power of two.
  static constexpr size_t kLegs = 8;
  static constexpr size_t kLegSteps = size_t{1} << 16;

  std::vector<uint32_t> table_;
  std::vector<double> legs_;
  volatile uint32_t sink_ = 0;  // Keeps the walk from being optimized out.
};

/// A probe leg's median time on the 4-CPU host this benchmark was written
/// on (0.8-1.1 ms there); setup_s is reported as if it had taken this long.
constexpr double kNominalProbeMs = 1.0;

// ---------------------------------------------------------------------------
// Run configuration.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;
  std::string trace_out;
  bool tiny = false;
  bool corrupt_reference = false;
};

/// Rounds of an untraced run. Each round is one set-up followed by an equal
/// share of the timed loop, so the set-ups sample the host across the whole
/// run as the timed requests do; setup_s and setup_raw_s come from the
/// median set-up.
constexpr int kRounds = 7;

/// A traced run has one set-up and times half of --seconds untraced.
int Rounds(const Args& args) { return args.trace ? 1 : kRounds; }
double RoundSeconds(const Args& args) {
  return (args.trace ? args.seconds / 2 : args.seconds) / Rounds(args);
}

int Threads() {
  unsigned hw = std::thread::hardware_concurrency();
  return int(std::clamp(hw == 0 ? 1u : hw, 1u, 4u));
}

EngineOptions TimedOptions() {
  EngineOptions o;
  o.num_threads = Threads();
  return o;
}

/// The reference configuration: indexes off and (at compile time)
/// optimization off, run on the lazy backend.
EngineOptions ReferenceOptions() {
  EngineOptions o;
  o.num_threads = Threads();
  o.enable_indexes = false;
  o.backend = ExecBackend::kLazy;
  return o;
}

XQueryEngine::CompileOptions ReferenceCompile() {
  XQueryEngine::CompileOptions c;
  c.optimize = false;
  return c;
}

CompiledQuery::ExecOptions OnBackend(ExecBackend b) {
  CompiledQuery::ExecOptions o;
  o.backend = b;
  return o;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

/// Everything a workload hands back to main().
struct Outcome {
  Report e2e;     // Gated end-to-end metrics (--trace 0).
  Report named;   // Workload-specific end-to-end figures (both modes).
  HostProbe* probe = nullptr;  // Sampled by set-ups and untraced loops.
  std::vector<double> setups_s;  // Wall time of each set-up.
  LayerSamples layers;
  Counters counters;
  OpTally ops;
  std::map<std::string, double> self_ms;
};

/// Samples the host probe, then runs one set-up, `fn`, recording its wall
/// time.
template <typename F>
Status TimedSetup(Outcome* out, F&& fn) {
  out->probe->Sample();
  Clock::time_point t0 = Clock::now();
  Status st = fn();
  out->setups_s.push_back(MsSince(t0) / 1e3);
  return st;
}

// ---------------------------------------------------------------------------
// xmark: Compile + ExecuteToXml round-robin over Q1-Q20 x {lazy, vm, eager}.

constexpr ExecBackend kBackends[] = {ExecBackend::kLazy, ExecBackend::kVm,
                                     ExecBackend::kEager};

/// Q8-Q12 are the value joins; they run on the smaller document.
bool IsJoinQuery(size_t q) { return q >= 7 && q <= 11; }

struct XMarkEngines {
  std::unique_ptr<XQueryEngine> paths;
  std::unique_ptr<XQueryEngine> joins;
  XQueryEngine* For(size_t q) const {
    return IsJoinQuery(q) ? joins.get() : paths.get();
  }
};

struct XMarkInputs {
  std::string paths_xml;
  std::string joins_xml;
};

/// Fresh engines with both documents ingested and their path/value and tag
/// indexes built. Traced set-up records one span per layer call and one
/// sample per set-up (both documents together) for each layer.
Result<XMarkEngines> IngestXMark(const XMarkInputs& in, Tracer* tracer,
                                 Outcome* out) {
  XMarkEngines e;
  e.paths = std::make_unique<XQueryEngine>(TimedOptions());
  e.joins = std::make_unique<XQueryEngine>(TimedOptions());
  std::pair<XQueryEngine*, const std::string*> docs[] = {
      {e.paths.get(), &in.paths_xml}, {e.joins.get(), &in.joins_xml}};
  double parse_ms = 0, index_ms = 0, tag_ms = 0;
  size_t bytes = 0;
  for (auto [engine, xml] : docs) {
    double ms = 0;
    auto doc = out->counters.Around([&] {
      return Call(tracer, "xml.parse", "xml", &ms, [&] {
        return engine->ParseAndRegister("xmark.xml", *xml);
      });
    });
    if (!doc.ok()) return doc.status();
    parse_ms += ms;
    bytes += xml->size();
    auto idx = out->counters.Around([&] {
      return Call(tracer, "index.build", "index", &ms,
                  [&] { return engine->GetDocumentIndexes("xmark.xml"); });
    });
    if (!idx.ok()) return idx.status();
    index_ms += ms;
    auto tags = Call(tracer, "join.tag_index_build", "join", &ms,
                     [&] { return engine->GetTagIndex("xmark.xml"); });
    if (!tags.ok()) return tags.status();
    tag_ms += ms;
  }
  AddParse(&out->layers, parse_ms, bytes, 2);
  out->layers.index_build_ms.push_back(index_ms);
  out->layers.index_builds += 2;
  out->layers.tag_index_build_ms.push_back(tag_ms);
  return e;
}

/// One pass over every (query, backend) whose results are not checked:
/// lazily built plan state and allocator warm-up happen here. Failures
/// show up, and are counted, in the timed passes.
void WarmXMark(const XMarkEngines& e) {
  const auto& queries = XMarkQuerySet();
  for (size_t q = 0; q < queries.size(); ++q) {
    for (ExecBackend b : kBackends) {
      auto compiled = e.For(q)->Compile(queries[q].text);
      if (compiled.ok()) compiled.value()->ExecuteToXml(OnBackend(b));
    }
  }
}

/// Request latencies (ms) of the xmark loop, indexed [backend][query].
using ClassSamples = std::vector<std::vector<std::vector<double>>>;

/// Closed loop in whole passes over every (query, backend): each request
/// is Compile, then Execute + SerializeSequence (what ExecuteToXml does).
/// With a live tracer each call is a span, the compile is also re-run split
/// into its layers, counter deltas are read around Execute, and a request's
/// latency is its Compile + Execute + SerializeSequence time; otherwise it
/// is the request's wall time. Appends the latencies to `samples`.
void LoopXMark(const XMarkEngines& e,
               const std::vector<std::string>& reference, double seconds,
               Tracer* tracer, Outcome* out, ClassSamples* samples) {
  const auto& queries = XMarkQuerySet();
  const bool traced = tracer->on();
  LayerSamples* s = &out->layers;
  samples->resize(std::size(kBackends),
                  std::vector<std::vector<double>>(queries.size()));
  Clock::time_point start = Clock::now();
  int passes = 0;
  while (passes < 3 || MsSince(start) < seconds * 1e3) {
    if (!traced) out->probe->Sample();
    for (size_t q = 0; q < queries.size(); ++q) {
      for (size_t b = 0; b < std::size(kBackends); ++b) {
        ExecBackend backend = kBackends[b];
        XQueryEngine* engine = e.For(q);
        tracer->BeginRequest();
        ScopedSpan root(tracer, "request", "bench");
        Clock::time_point t0 = Clock::now();
        double compile_ms = 0, exec_ms = 0, ser_ms = 0;
        auto request = [&]() -> Result<std::string> {
          auto compiled =
              Call(tracer, "engine.compile", "engine", &compile_ms,
                   [&] { return engine->Compile(queries[q].text); });
          if (!compiled.ok()) return compiled.status();
          if (traced) {
            s->requests += 1;
            s->compile_us.push_back(compile_ms * 1e3);
            XQP_RETURN_NOT_OK(SplitCompile(tracer, engine, queries[q].text,
                                           backend == ExecBackend::kVm, s));
            if (backend == ExecBackend::kVm) s->vm_requests += 1;
          }
          auto execute = [&] {
            return Call(tracer, "exec.execute", "exec", &exec_ms, [&] {
              return compiled.value()->Execute(OnBackend(backend));
            });
          };
          auto result = traced ? out->counters.Around(execute) : execute();
          if (!result.ok()) return result.status();
          return Call(tracer, "xml.serialize", "xml", &ser_ms,
                      [&] { return SerializeSequence(result.value()); });
        };
        Result<std::string> xml = request();
        double ms = traced ? compile_ms + exec_ms + ser_ms : MsSince(t0);
        out->ops.Record(xml.status(), xml.ok() ? xml.value() : "",
                        reference[q],
                        std::string(queries[q].id) + "/" +
                            ExecBackendName(backend));
        if (!xml.ok()) continue;
        (*samples)[b][q].push_back(ms);
        if (traced) {
          AddSerialize(s, ser_ms, xml.value().size());
          s->exec_ms[std::string(ExecBackendName(backend)) + "." +
                     queries[q].id]
              .push_back(exec_ms);
        }
      }
    }
    ++passes;
  }
}

std::vector<double> ClassMedians(
    const std::vector<std::vector<double>>& per_query) {
  std::vector<double> out;
  for (const auto& v : per_query) out.push_back(Median(v));
  return out;
}

Status RunXMark(const Args& args, Outcome* out) {
  XMarkOptions paths_opts, joins_opts;
  paths_opts.seed = joins_opts.seed = args.seed;
  paths_opts.scale = args.tiny ? 0.02 : 1.0;
  joins_opts.scale = args.tiny ? 0.01 : 0.1;
  XMarkInputs in{GenerateXMarkXml(paths_opts), GenerateXMarkXml(joins_opts)};
  std::printf("# input: paths document %zu bytes (scale %.2f), joins "
              "document %zu bytes (scale %.2f)\n",
              in.paths_xml.size(), paths_opts.scale, in.joins_xml.size(),
              joins_opts.scale);

  const auto& queries = XMarkQuerySet();
  std::vector<std::string> reference;
  {
    XQueryEngine ref_paths(ReferenceOptions()), ref_joins(ReferenceOptions());
    auto p = ref_paths.ParseAndRegister("xmark.xml", in.paths_xml);
    auto j = ref_joins.ParseAndRegister("xmark.xml", in.joins_xml);
    if (!p.ok()) return p.status();
    if (!j.ok()) return j.status();
    for (size_t q = 0; q < queries.size(); ++q) {
      XQueryEngine* ref = IsJoinQuery(q) ? &ref_joins : &ref_paths;
      auto compiled = ref->Compile(queries[q].text, ReferenceCompile());
      if (!compiled.ok()) return compiled.status();
      auto xml = compiled.value()->ExecuteToXml(OnBackend(ExecBackend::kLazy));
      if (!xml.ok()) return xml.status();
      reference.push_back(std::move(xml).value());
    }
  }
  if (args.corrupt_reference) reference[0] += "<altered/>";

  Tracer untraced(false);
  Outcome ignored;
  XMarkEngines engines;
  ClassSamples samples;
  double elapsed_s = 0;
  for (int round = 0; round < Rounds(args); ++round) {
    engines = XMarkEngines();  // Free the previous set-up first.
    XQP_RETURN_NOT_OK(TimedSetup(out, [&]() -> Status {
      XQP_ASSIGN_OR_RETURN(engines, IngestXMark(in, &untraced, &ignored));
      WarmXMark(engines);
      return Status::OK();
    }));
    Clock::time_point t0 = Clock::now();
    LoopXMark(engines, reference, RoundSeconds(args), &untraced, out,
              &samples);
    elapsed_s += MsSince(t0) / 1e3;
  }
  std::vector<double> all_classes;
  for (size_t b = 0; b < std::size(kBackends); ++b) {
    std::vector<double> medians = ClassMedians(samples[b]);
    all_classes.insert(all_classes.end(), medians.begin(), medians.end());
    out->named.Set(std::string("xmark.") + ExecBackendName(kBackends[b]) +
                       ".geomean_ms",
                   Geomean(medians), "ms");
  }
  double requests = double(out->ops.attempted());
  out->named.Set("latency_ms", Geomean(all_classes), "ms");
  std::printf("# xmark: %.0f requests in %.2f s (%zu per query and "
              "backend); median ms lazy/vm/eager:\n",
              requests, elapsed_s, samples[0][0].size());
  for (size_t q = 0; q < queries.size(); ++q) {
    std::printf("#   %-4s %10.3f %10.3f %10.3f\n", queries[q].id,
                Median(samples[0][q]), Median(samples[1][q]),
                Median(samples[2][q]));
  }

  if (!args.trace) return Status::OK();

  // Traced run on fresh engines, registry on.
  engines = XMarkEngines();
  metrics::MetricsRegistry::Global().set_enabled(true);
  Tracer tracer(true);
  auto traced = IngestXMark(in, &tracer, out);
  if (!traced.ok()) return traced.status();
  engines = std::move(traced).value();
  WarmXMark(engines);
  ClassSamples traced_samples;
  LoopXMark(engines, reference, args.seconds / 2, &tracer, out,
            &traced_samples);
  std::vector<double> ratios;
  for (size_t b = 0; b < std::size(kBackends); ++b) {
    for (size_t q = 0; q < queries.size(); ++q) {
      double untraced_ms = Median(samples[b][q]);
      double traced_ms = Median(traced_samples[b][q]);
      if (untraced_ms > 0 && traced_ms > 0) {
        ratios.push_back(traced_ms / untraced_ms);
      }
    }
  }
  out->layers.overhead_ratio = Geomean(ratios);
  out->self_ms = tracer.SelfMsByLayer();
  tracer.Write(args.trace_out);
  return Status::OK();
}


// ---------------------------------------------------------------------------
// messages: per message, Document::Parse, broker routes, the
// trading-partner transform on the context item, and serialization.

struct RouteDef {
  const char* name;
  const char* predicate;  // Boolean XQuery over the message.
};

constexpr RouteDef kRoutes[] = {
    {"remote-partners", "exists(/wlc/trading-partner[@type = 'REMOTE'])"},
    {"rosettanet",
     "exists(//document-exchange[@business-protocol-name = 'RosettaNet'])"},
    {"plain-http", "exists(//transport[@protocol = 'http'])"},
    {"large-config", "count(/wlc/trading-partner) > 8"},
    {"alerts", "exists(//alert[@severity = ('high', 'critical')])"},
    {"audit-everything", "true()"},
};

// The trading-partner configuration transform of
// examples/web_service_transform.cpp, anchored on the message (the
// context item) instead of doc('wlc.xml').
constexpr const char* kTransform = R"(
let $wlc := /wlc
return
<trading-partner-list>{
  for $tp in $wlc/trading-partner
  return
    <trading-partner name="{$tp/@name}" type="{$tp/@type}"
                     email="{$tp/@email}">
    {
      for $dc in $tp/delivery-channel
      for $de in $tp/document-exchange
      for $t in $tp/transport
      where $dc/@document-exchange-name = $de/@name
        and $dc/@transport-name = $t/@name
        and $de/@business-protocol-name = 'ebXML'
      return
        <ebxml-binding name="{$dc/@name}"
            business-protocol-version="{$de/@protocol-version}"
            is-signature-required="{$dc/@nonrepudiation-of-origin}"
            delivery-semantics="{$de/EBXML-binding/@delivery-semantics}">
        { if (empty($de/EBXML-binding/@ttl)) then ()
          else attribute persist-duration {
            concat($de/EBXML-binding/@ttl div 1000, ' seconds') } }
        { if (empty($de/EBXML-binding/@retries)) then ()
          else $de/EBXML-binding/@retries }
        { if (empty($de/EBXML-binding/@retry-interval)) then ()
          else attribute retry-interval {
            concat($de/EBXML-binding/@retry-interval div 1000, ' seconds') } }
          <transport protocol="{$t/@protocol}"
                     protocol-version="{$t/@protocol-version}"
                     endpoint="{$t/endpoint[1]/@uri}">
            <authentication
                client-authentication="{
                  if (empty($tp/client-certificate)) then 'NONE'
                  else 'SSL_CERT_MUTUAL' }"
                server-authentication="{
                  if ($t/@protocol = 'http') then 'NONE' else 'SSL_CERT' }"
                server-certificate-name="{
                  if ($tp/@type = 'REMOTE')
                  then string($tp/server-certificate/@name) else '' }"/>
          </transport>
        </ebxml-binding>
    }
    {
      for $dc in $tp/delivery-channel
      for $de in $tp/document-exchange
      for $t in $tp/transport
      where $dc/@document-exchange-name = $de/@name
        and $dc/@transport-name = $t/@name
        and $de/@business-protocol-name = 'RosettaNet'
      return
        <rosettanet-binding name="{$dc/@name}"
            cipher-algorithm="{$de/RosettaNet-binding/@cipher-algorithm}"
            encryption-level="{
              if ($de/RosettaNet-binding/@encryption-level = 0) then 'NONE'
              else if ($de/RosettaNet-binding/@encryption-level = 1)
                   then 'PAYLOAD' else 'ENTIRE_PAYLOAD' }">
        { if (empty($de/RosettaNet-binding/@time-out)) then ()
          else attribute process-timeout {
            concat($de/RosettaNet-binding/@time-out div 1000, ' seconds') } }
          <transport protocol="{$t/@protocol}"
                     endpoint="{$t/endpoint[1]/@uri}"/>
        </rosettanet-binding>
    }
    </trading-partner>
}</trading-partner-list>)";

/// Seeded generator of trading-partner configuration messages. Uses
/// std::mt19937_64 directly (its output is fixed by the standard) so a
/// seed yields the same messages on every platform.
class MessageGenerator {
 public:
  explicit MessageGenerator(uint64_t seed) : rng_(seed) {}

  uint64_t Pick(uint64_t n) { return rng_() % n; }

  /// A <wlc> message of trading partners, grown until it reaches
  /// `target_bytes`.
  std::string Message(size_t target_bytes, size_t serial) {
    std::string out = "<wlc id=\"m" + std::to_string(serial) + "\">";
    if (Pick(16) == 0) {
      out += "<alert severity=\"";
      out += kSeverities[Pick(std::size(kSeverities))];
      out += "\"><msg>partner certificate expires soon</msg></alert>";
    }
    size_t k = 0;
    do {
      Partner("p" + std::to_string(serial) + "-" + std::to_string(k++), &out);
    } while (out.size() < target_bytes);
    out += "</wlc>";
    return out;
  }

 private:
  static constexpr const char* kSeverities[] = {"low", "high", "critical"};
  static constexpr const char* kCities[] = {"Dresden", "Austin", "Hsinchu",
                                            "Penang", "Eindhoven"};

  std::string Flag() { return Pick(2) == 0 ? "true" : "false"; }
  std::string Num(uint64_t lo, uint64_t span) {
    return std::to_string(lo + Pick(span));
  }

  void Partner(const std::string& name, std::string* out) {
    bool remote = Pick(3) == 0;
    *out += "<trading-partner name=\"" + name + "\" type=\"" +
            (remote ? "REMOTE" : "LOCAL") + "\" email=\"" + name +
            "@example.com\">";
    if (Pick(2) == 0) {
      *out += "<address street=\"" + Num(1, 900) + " Fab Way\" city=\"" +
              kCities[Pick(std::size(kCities))] + "\"/>";
    }
    if (Pick(4) != 0) {
      *out += "<client-certificate name=\"" + name + "-client\"/>";
    }
    if (Pick(3) != 0) {
      *out += "<server-certificate name=\"" + name + "-server\"/>";
    }
    uint64_t exchanges = 1 + Pick(2), transports = 1 + Pick(2);
    uint64_t channels = 1 + Pick(3);
    for (uint64_t c = 0; c < channels; ++c) {
      *out += "<delivery-channel name=\"" + name + "-dc" + std::to_string(c) +
              "\" document-exchange-name=\"" + name + "-de" +
              std::to_string(Pick(exchanges)) + "\" transport-name=\"" +
              name + "-t" + std::to_string(Pick(transports)) +
              "\" nonrepudiation-of-origin=\"" + Flag() +
              "\" nonrepudiation-of-receipt=\"" + Flag() + "\"/>";
    }
    for (uint64_t d = 0; d < exchanges; ++d) {
      bool ebxml = Pick(3) != 0;
      *out += "<document-exchange name=\"" + name + "-de" +
              std::to_string(d) + "\" business-protocol-name=\"" +
              (ebxml ? "ebXML" : "RosettaNet") + "\" protocol-version=\"" +
              (ebxml ? "2.0" : "1.1") + "\">";
      if (ebxml) {
        *out += std::string("<EBXML-binding delivery-semantics=\"") +
                (Pick(2) == 0 ? "OnceAndOnlyOnce" : "BestEffort") + "\"";
        if (Pick(3) != 0) *out += " retries=\"" + Num(1, 6) + "\"";
        if (Pick(3) != 0) {
          *out += " retry-interval=\"" + Num(5, 60) + "000\"";
        }
        if (Pick(2) == 0) *out += " ttl=\"" + Num(30, 90) + "000\"";
        *out += " signature-certificate-name=\"" + name + "-sign\"/>";
      } else {
        *out += "<RosettaNet-binding encryption-level=\"" + Num(0, 3) +
                "\" cipher-algorithm=\"" + (Pick(2) == 0 ? "RC5" : "3DES") +
                "\" retries=\"" + Num(1, 4) + "\" retry-interval=\"" +
                Num(10, 20) + "000\"";
        if (Pick(2) == 0) *out += " time-out=\"" + Num(60, 120) + "000\"";
        *out += " signature-certificate-name=\"" + name + "-sign\"/>";
      }
      *out += "</document-exchange>";
    }
    for (uint64_t t = 0; t < transports; ++t) {
      bool https = Pick(3) != 0;
      *out += "<transport name=\"" + name + "-t" + std::to_string(t) +
              "\" protocol=\"" + (https ? "https" : "http") +
              "\" protocol-version=\"" + (Pick(2) == 0 ? "1.0" : "1.1") +
              "\"><endpoint uri=\"" + (https ? "https" : "http") + "://" +
              name + ".example.com/exchange/" + Num(1, 99) +
              "\"/></transport>";
    }
    *out += "</trading-partner>";
  }

  std::mt19937_64 rng_;
};

/// `count` messages whose sizes are the log-uniform quantiles of 1-40 KB
/// (the same size profile for every seed; the seed picks the content and
/// the order).
std::vector<std::string> GenerateMessages(uint64_t seed, size_t count) {
  MessageGenerator gen(seed);
  std::vector<std::string> out;
  for (size_t i = 0; i < count; ++i) {
    double u = (double(i) + 0.5) / double(count);
    out.push_back(gen.Message(size_t(1024 * std::pow(40.0, u)), i));
  }
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[gen.Pick(i)]);
  }
  return out;
}

struct Broker {
  std::vector<std::unique_ptr<CompiledQuery>> routes;
  std::unique_ptr<CompiledQuery> transform;
};

/// Compiles the routes and the transform on `engine`. With a live tracer
/// each compile is a span and also split into its layers.
Result<Broker> CompileBroker(XQueryEngine* engine,
                             const XQueryEngine::CompileOptions& options,
                             Tracer* tracer, LayerSamples* s) {
  Broker broker;
  std::vector<const char*> texts;
  for (const RouteDef& r : kRoutes) texts.push_back(r.predicate);
  texts.push_back(kTransform);
  for (const char* text : texts) {
    double ms = 0;
    auto compiled = Call(tracer, "engine.compile", "engine", &ms,
                         [&] { return engine->Compile(text, options); });
    if (!compiled.ok()) return compiled.status();
    if (tracer->on()) {
      s->compile_us.push_back(ms * 1e3);
      Status split = SplitCompile(tracer, engine, text, false, s);
      if (!split.ok()) return split;
    }
    if (text == kTransform) {
      broker.transform = std::move(compiled).value();
    } else {
      broker.routes.push_back(std::move(compiled).value());
    }
  }
  return broker;
}

/// One message through the broker: the route verdicts as a 0/1 string, a
/// newline, then the serialized transform output.
Result<std::string> ProcessMessage(const Broker& broker,
                                   const std::string& message,
                                   Tracer* tracer, Outcome* out,
                                   double* total_ms) {
  LayerSamples* s = &out->layers;
  const bool traced = tracer->on();
  double parse_ms = 0, route_ms = 0, transform_ms = 0, ser_ms = 0;
  auto counted = [&](auto&& fn) {
    return traced ? out->counters.Around(fn) : fn();
  };
  auto doc = counted([&] {
    return Call(tracer, "xml.parse", "xml", &parse_ms,
                [&] { return Document::Parse(message); });
  });
  if (!doc.ok()) return doc.status();
  CompiledQuery::ExecOptions options;
  options.has_context_item = true;
  options.context_item = Item(Node(doc.value(), 0));
  auto verdicts = counted([&] {
    return Call(tracer, "exec.route", "exec", &route_ms,
                [&]() -> Result<std::string> {
                  std::string bits;
                  for (const auto& route : broker.routes) {
                    auto seq = route->Execute(options);
                    if (!seq.ok()) return seq.status();
                    auto match = EffectiveBooleanValue(seq.value());
                    if (!match.ok()) return match.status();
                    bits.push_back(match.value() ? '1' : '0');
                  }
                  return bits;
                });
  });
  if (!verdicts.ok()) return verdicts.status();
  auto result = counted([&] {
    return Call(tracer, "exec.transform", "exec", &transform_ms,
                [&] { return broker.transform->Execute(options); });
  });
  if (!result.ok()) return result.status();
  auto xml = Call(tracer, "xml.serialize", "xml", &ser_ms,
                  [&] { return SerializeSequence(result.value()); });
  if (!xml.ok()) return xml.status();
  *total_ms = parse_ms + route_ms + transform_ms + ser_ms;
  if (traced) {
    AddParse(s, parse_ms, message.size(), 1);
    s->route_us.push_back(route_ms * 1e3);
    s->transform_us.push_back(transform_ms * 1e3);
    AddSerialize(s, ser_ms, xml.value().size());
  }
  return verdicts.value() + "\n" + xml.value();
}

/// Closed loop over the message stream for `seconds`, in whole passes over
/// the stream; appends per-message latencies (ms) to `latencies` and each
/// pass's messages per second to `pass_rates`.
void LoopMessages(const Broker& broker,
                  const std::vector<std::string>& messages,
                  const std::vector<std::string>& reference, double seconds,
                  Tracer* tracer, Outcome* out, std::vector<double>* latencies,
                  std::vector<double>* pass_rates) {
  Clock::time_point start = Clock::now();
  Clock::time_point pass_start = start;
  for (size_t n = 0; n % messages.size() != 0 || n == 0 ||
                     MsSince(start) < seconds * 1e3;
       ++n) {
    size_t i = n % messages.size();
    if (i == 0 && n > 0) {
      pass_rates->push_back(double(messages.size()) /
                            (MsSince(pass_start) / 1e3));
    }
    if (i == 0) {
      if (!tracer->on()) out->probe->Sample();
      pass_start = Clock::now();
    }
    tracer->BeginRequest();
    ScopedSpan root(tracer, "request", "bench");
    Clock::time_point t0 = Clock::now();
    double traced_ms = 0;
    auto got = ProcessMessage(broker, messages[i], tracer, out, &traced_ms);
    double ms = MsSince(t0);
    out->ops.Record(got.status(), got.ok() ? got.value() : "", reference[i],
                    "message " + std::to_string(i));
    if (!got.ok()) continue;
    if (tracer->on()) out->layers.requests += 1;
    latencies->push_back(tracer->on() ? traced_ms : ms);
  }
  pass_rates->push_back(double(messages.size()) /
                        (MsSince(pass_start) / 1e3));
}

Status RunMessages(const Args& args, Outcome* out) {
  std::vector<std::string> messages =
      GenerateMessages(args.seed, args.tiny ? 16 : 256);
  size_t total_bytes = 0;
  for (const std::string& m : messages) total_bytes += m.size();
  std::printf("# input: %zu messages, %zu bytes\n", messages.size(),
              total_bytes);

  std::vector<std::string> reference;
  {
    XQueryEngine ref(ReferenceOptions());
    Tracer off(false);
    auto broker = CompileBroker(&ref, ReferenceCompile(), &off, nullptr);
    if (!broker.ok()) return broker.status();
    Outcome scratch;
    for (const std::string& m : messages) {
      double ms = 0;
      auto got = ProcessMessage(broker.value(), m, &off, &scratch, &ms);
      if (!got.ok()) return got.status();
      reference.push_back(std::move(got).value());
    }
  }
  if (args.corrupt_reference) reference[0] += "<altered/>";

  // Rounds of set-up (a fresh engine, the compiled broker, and one untimed
  // pass over the message stream) and timed passes.
  Tracer untraced(false);
  std::unique_ptr<XQueryEngine> engine;
  Broker broker;
  std::vector<double> lat, pass_rates;
  double elapsed_s = 0;
  for (int round = 0; round < Rounds(args); ++round) {
    broker = Broker();
    engine.reset();
    XQP_RETURN_NOT_OK(TimedSetup(out, [&]() -> Status {
      engine = std::make_unique<XQueryEngine>(TimedOptions());
      XQP_ASSIGN_OR_RETURN(
          broker, CompileBroker(engine.get(), {}, &untraced, nullptr));
      Outcome warm;  // Not checked; the timed passes count failures.
      for (const std::string& m : messages) {
        double ms = 0;
        ProcessMessage(broker, m, &untraced, &warm, &ms);
      }
      return Status::OK();
    }));
    Clock::time_point t0 = Clock::now();
    LoopMessages(broker, messages, reference, RoundSeconds(args), &untraced,
                 out, &lat, &pass_rates);
    elapsed_s += MsSince(t0) / 1e3;
  }
  double p50 = Median(lat);
  double msgs_per_s = Median(pass_rates);
  out->named.Set("messages.msgs_per_s", msgs_per_s, "1/s");
  out->named.Set("messages.p50_us", p50 * 1e3, "us");
  out->named.Set("messages.p99_us", Quantile(lat, 0.99) * 1e3, "us");
  out->named.Set("latency_ms", p50, "ms");
  std::printf("# messages: %zu processed in %.2f s\n", lat.size(), elapsed_s);

  if (!args.trace) return Status::OK();

  metrics::MetricsRegistry::Global().set_enabled(true);
  Tracer tracer(true);
  broker = Broker();
  engine = std::make_unique<XQueryEngine>(TimedOptions());
  auto compiled = CompileBroker(engine.get(), {}, &tracer, &out->layers);
  if (!compiled.ok()) return compiled.status();
  broker = std::move(compiled).value();
  std::vector<double> traced, traced_rates;
  LoopMessages(broker, messages, reference, args.seconds / 2, &tracer, out,
               &traced, &traced_rates);
  out->layers.overhead_ratio = p50 > 0 ? Median(traced) / p50 : 0;
  out->self_ms = tracer.SelfMsByLayer();
  tracer.Write(args.trace_out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// cold_start: bytes to first answer, by parsing and by loading a snapshot.

struct ColdTimes {
  double parse_first_ms = 0;
  double snapshot_first_ms = 0;
  double snapshot_bytes = 0;
};

/// Compiles and runs Q1 on `engine`, returning the serialized answer.
Result<std::string> FirstAnswer(XQueryEngine* engine, Tracer* tracer,
                                Outcome* out) {
  LayerSamples* s = &out->layers;
  const bool traced = tracer->on();
  double compile_ms = 0, exec_ms = 0, ser_ms = 0;
  auto compiled = Call(tracer, "engine.compile", "engine", &compile_ms, [&] {
    return engine->Compile(FindXMarkQuery("Q1")->text);
  });
  if (!compiled.ok()) return compiled.status();
  auto run = [&] {
    return Call(tracer, "exec.execute", "exec", &exec_ms,
                [&] { return compiled.value()->Execute(); });
  };
  auto result = traced ? out->counters.Around(run) : run();
  if (!result.ok()) return result.status();
  auto xml = Call(tracer, "xml.serialize", "xml", &ser_ms,
                  [&] { return SerializeSequence(result.value()); });
  if (!xml.ok()) return xml.status();
  if (traced) {
    s->compile_us.push_back(compile_ms * 1e3);
    AddSerialize(s, ser_ms, xml.value().size());
  }
  return xml;
}

/// One cycle: fresh engine, ParseAndRegister, Q1 (first use builds the
/// indexes), SaveSnapshot; second fresh engine, LoadDocumentSnapshot, Q1.
/// Each first answer is one checked operation. The snapshot file is
/// removed before returning.
ColdTimes ColdCycle(const std::string& xml, const std::string& reference,
                    const std::string& snapshot_path, Tracer* tracer,
                    Outcome* out) {
  LayerSamples* s = &out->layers;
  const bool traced = tracer->on();
  ColdTimes t;
  tracer->BeginRequest();
  ScopedSpan root(tracer, "request", "bench");
  if (traced) s->requests += 1;
  Status saved = Status::OK();
  {
    Clock::time_point t0 = Clock::now();
    auto engine = std::make_unique<XQueryEngine>(TimedOptions());
    double parse_ms = 0;
    auto parse = [&] {
      return Call(tracer, "xml.parse", "xml", &parse_ms,
                  [&] { return engine->ParseAndRegister("xmark.xml", xml); });
    };
    auto doc = traced ? out->counters.Around(parse) : parse();
    Status st = doc.status();
    if (st.ok() && traced) {
      AddParse(s, parse_ms, xml.size(), 1);
      // Q1's first use builds the indexes; the traced cycle builds them
      // explicitly so the build is a span of its own.
      double index_ms = 0;
      auto idx = out->counters.Around([&] {
        return Call(tracer, "index.build", "index", &index_ms,
                    [&] { return engine->GetDocumentIndexes("xmark.xml"); });
      });
      s->index_build_ms.push_back(index_ms);
      s->index_builds += 1;
      st = idx.status();
    }
    Result<std::string> got =
        st.ok() ? FirstAnswer(engine.get(), tracer, out)
                : Result<std::string>(st);
    t.parse_first_ms = MsSince(t0);
    out->ops.Record(got.status(), got.ok() ? got.value() : "", reference,
                    "parse path");
    if (got.ok()) {
      double save_ms = 0;
      saved = Call(tracer, "storage.save", "storage", &save_ms, [&] {
        return engine->SaveSnapshot("xmark.xml", snapshot_path);
      });
      if (traced) s->save_ms.push_back(save_ms);
    } else {
      saved = got.status();
    }
  }
  std::error_code ec;
  if (saved.ok()) {
    t.snapshot_bytes = double(std::filesystem::file_size(snapshot_path, ec));
    Clock::time_point t0 = Clock::now();
    auto engine = std::make_unique<XQueryEngine>(TimedOptions());
    double load_ms = 0;
    auto doc = Call(tracer, "storage.load", "storage", &load_ms, [&] {
      return engine->LoadDocumentSnapshot("xmark.xml", snapshot_path);
    });
    Result<std::string> got =
        doc.ok() ? FirstAnswer(engine.get(), tracer, out)
                 : Result<std::string>(doc.status());
    t.snapshot_first_ms = MsSince(t0);
    if (traced) {
      s->load_ms.push_back(load_ms);
      s->snapshot_bytes.push_back(t.snapshot_bytes);
    }
    out->ops.Record(got.status(), got.ok() ? got.value() : "", reference,
                    "snapshot path");
  } else {
    out->ops.Record(saved, "", reference, "snapshot path (save)");
  }
  std::filesystem::remove(snapshot_path, ec);
  return t;
}

Status RunColdStart(const Args& args, Outcome* out) {
  XMarkOptions opts;
  opts.seed = args.seed;
  opts.scale = args.tiny ? 0.05 : 4.0;
  std::string xml = GenerateXMarkXml(opts);
  std::printf("# input: %zu bytes (XMark scale %.2f)\n", xml.size(),
              opts.scale);

  std::string reference;
  {
    XQueryEngine ref(ReferenceOptions());
    auto doc = ref.ParseAndRegister("xmark.xml", xml);
    if (!doc.ok()) return doc.status();
    auto compiled = ref.Compile(FindXMarkQuery("Q1")->text, ReferenceCompile());
    if (!compiled.ok()) return compiled.status();
    auto got = compiled.value()->ExecuteToXml(OnBackend(ExecBackend::kLazy));
    if (!got.ok()) return got.status();
    reference = std::move(got).value();
  }
  if (args.corrupt_reference) reference += "<altered/>";

  std::error_code ec;
  std::filesystem::create_directories(args.scratch, ec);
  if (ec) return Status::IoError("cannot create " + args.scratch);
  const std::string path = args.scratch + "/xmark.xqps";

  // Appends at least three cycles, and as many as fit in `seconds`.
  auto loop = [&](double seconds, Tracer* tracer,
                  std::vector<ColdTimes>* cycles) {
    Clock::time_point start = Clock::now();
    for (int n = 0; n < 3 || MsSince(start) < seconds * 1e3; ++n) {
      if (!tracer->on()) out->probe->Sample();
      cycles->push_back(ColdCycle(xml, reference, path, tracer, out));
    }
  };
  // Set-up: a warm-up cycle (page cache, allocator) whose answers are not
  // checked; its wall time is a set-up time.
  Tracer untraced(false);
  std::vector<ColdTimes> cycles;
  double elapsed_s = 0;
  for (int round = 0; round < Rounds(args); ++round) {
    Outcome warm;
    TimedSetup(out, [&] {
      ColdCycle(xml, reference, path, &untraced, &warm);
      return Status::OK();
    });
    Clock::time_point t0 = Clock::now();
    loop(RoundSeconds(args), &untraced, &cycles);
    elapsed_s += MsSince(t0) / 1e3;
  }
  std::vector<double> parse_ms, snap_ms, bytes;
  for (const ColdTimes& c : cycles) {
    parse_ms.push_back(c.parse_first_ms);
    snap_ms.push_back(c.snapshot_first_ms);
    bytes.push_back(c.snapshot_bytes);
  }
  double parse_med = Median(parse_ms), snap_med = Median(snap_ms);
  out->named.Set("cold.parse_first_result_ms", parse_med, "ms");
  out->named.Set("cold.snapshot_first_result_ms", snap_med, "ms");
  out->named.Set("cold.snapshot_bytes_per_xml_byte",
                 Median(bytes) / double(xml.size()), "ratio");
  out->named.Set("latency_ms", Geomean({parse_med, snap_med}), "ms");
  std::printf("# cold_start: %zu cycles in %.2f s\n", cycles.size(),
              elapsed_s);

  if (!args.trace) return Status::OK();

  metrics::MetricsRegistry::Global().set_enabled(true);
  Tracer tracer(true);
  std::vector<ColdTimes> traced;
  loop(args.seconds / 2, &tracer, &traced);
  std::vector<double> traced_parse, traced_snap;
  for (const ColdTimes& c : traced) {
    traced_parse.push_back(c.parse_first_ms);
    traced_snap.push_back(c.snapshot_first_ms);
  }
  out->layers.overhead_ratio =
      Geomean({Median(traced_parse) / parse_med,
               Median(traced_snap) / snap_med});
  out->self_ms = tracer.SelfMsByLayer();
  tracer.Write(args.trace_out);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reporting.

/// Workload figures: each workload fills its own plus latency_ms (main
/// adds ops_failed_ratio, setup_raw_s and host.probe_ms); the traced run
/// reports the rest as 0.
constexpr std::pair<const char*, const char*> kNamedMetrics[] = {
    {"xmark.lazy.geomean_ms", "ms"},
    {"xmark.vm.geomean_ms", "ms"},
    {"xmark.eager.geomean_ms", "ms"},
    {"messages.msgs_per_s", "1/s"},
    {"messages.p50_us", "us"},
    {"messages.p99_us", "us"},
    {"cold.parse_first_result_ms", "ms"},
    {"cold.snapshot_first_result_ms", "ms"},
    {"cold.snapshot_bytes_per_xml_byte", "ratio"},
    {"ops_failed_ratio", "ratio"},
    {"latency_ms", "ms"},
    {"setup_raw_s", "s"},
    {"host.probe_ms", "ms"},
};

constexpr const char* kLayers[] = {"engine", "query", "opt",  "vm",     "exec",
                                   "xml",    "index", "join", "storage"};

double NamedValue(const Outcome& o, const std::string& name) {
  for (const auto& [n, m] : o.named.metrics()) {
    if (n == name) return m.value;
  }
  return 0;
}

/// The per-layer metrics of a traced run (see METRICS.md).
Report LayerReport(const Outcome& o) {
  const LayerSamples& s = o.layers;
  const Counters& c = o.counters;
  Report r;
  for (const auto& [name, unit] : kNamedMetrics) {
    r.Set(name, NamedValue(o, name), unit);
  }

  r.Set("xml.parse_ms", Median(s.parse_ms), "ms");
  r.Set("xml.parse_mb_per_s",
        Mean(s.parse_bytes / 1e6, s.parse_total_ms / 1e3), "MB/s");
  r.Set("xml.parse_events", Mean(c.Total("parse.events"), s.parses),
        "count");
  r.Set("xml.serialize_us", Median(s.serialize_us), "us");
  r.Set("xml.serialize_mb_per_s",
        Mean(s.output_bytes / 1e6, s.serialize_total_ms / 1e3), "MB/s");
  r.Set("xml.output_bytes", Mean(s.output_bytes, double(s.serialize_us.size())),
        "bytes");

  r.Set("index.build_ms", Median(s.index_build_ms), "ms");
  r.Set("index.bytes", Mean(c.Total("index.bytes"), s.index_builds), "bytes");
  double hits = c.Total("index.synopsis_hits") + c.Total("index.value_hits");
  double fallbacks = c.Total("index.fallbacks");
  r.Set("index.synopsis_hits", Mean(c.Total("index.synopsis_hits"), s.requests),
        "count");
  r.Set("index.value_hits", Mean(c.Total("index.value_hits"), s.requests),
        "count");
  r.Set("index.fallbacks", Mean(fallbacks, s.requests), "count");
  r.Set("index.hit_ratio", Mean(hits, hits + fallbacks), "ratio");

  r.Set("join.tag_index_build_ms", Median(s.tag_index_build_ms), "ms");
  r.Set("join.parallel_dispatched",
        Mean(c.Total("join.parallel.dispatched"), s.requests), "count");
  r.Set("join.twig_parallel_dispatched",
        Mean(c.Total("twig.parallel.dispatched"), s.requests), "count");
  r.Set("join.ddo_sort_items", Mean(c.Total("sort.ddo.items"), s.requests),
        "count");

  r.Set("storage.save_ms", Median(s.save_ms), "ms");
  r.Set("storage.load_ms", Median(s.load_ms), "ms");
  r.Set("storage.snapshot_bytes", Median(s.snapshot_bytes), "bytes");

  r.Set("engine.compile_us", Median(s.compile_us), "us");
  r.Set("query.parse_us", Median(s.query_parse_us), "us");
  r.Set("query.normalize_us", Median(s.normalize_us), "us");
  r.Set("opt.optimize_us", Median(s.optimize_us), "us");
  r.Set("opt.rewrites_fired", Mean(s.rewrites_fired, s.compiles), "count");
  for (const char* path : {"nav", "sjoin", "twig", "index"}) {
    r.Set(std::string("opt.access_path.") + path,
          Mean(c.Total(std::string("planner.") + path), s.requests), "count");
  }

  r.Set("vm.lower_us", Median(s.vm_lower_us), "us");
  r.Set("vm.code_size", Mean(s.vm_code_size, double(s.vm_lower_us.size())),
        "count");
  r.Set("vm.instructions_executed",
        Mean(c.Total("vm.instructions"), s.vm_requests), "count");
  r.Set("vm.bailout_hits", Mean(c.Total("vm.bailouts"), s.vm_requests),
        "count");
  r.Set("vm.fallbacks", Mean(c.Total("vm.fallbacks"), s.vm_requests),
        "count");

  for (ExecBackend b : kBackends) {
    for (const XMarkQuery& q : XMarkQuerySet()) {
      std::string key = std::string(ExecBackendName(b)) + "." + q.id;
      auto it = s.exec_ms.find(key);
      r.Set("exec." + key + "_ms",
            it == s.exec_ms.end() ? 0 : Median(it->second), "ms");
    }
  }
  r.Set("exec.route_us", Median(s.route_us), "us");
  r.Set("exec.transform_us", Median(s.transform_us), "us");
  r.Set("exec.lazy_path_blocking",
        Mean(c.Total("lazy.path.blocking"), s.requests), "count");
  r.Set("exec.lazy_path_streaming",
        Mean(c.Total("lazy.path.streaming"), s.requests), "count");

  r.Set("trace.overhead_ratio", s.overhead_ratio, "ratio");
  for (const char* layer : kLayers) {
    auto it = o.self_ms.find(layer);
    r.Set(std::string("self.") + layer + "_ms",
          it == o.self_ms.end() ? 0 : Mean(it->second, s.requests), "ms");
  }
  return r;
}

void PrintReport(const char* title, const Report& r) {
  std::printf("# %s\n", title);
  for (const auto& [name, m] : r.metrics()) {
    std::printf("#   %-36s %14.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintJson(const Outcome& o, const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              o.ops.failed() == 0 ? "true" : "false",
              (unsigned long long)o.ops.attempted(),
              (unsigned long long)o.ops.failed());
  bool first = true;
  for (const auto& [name, m] : r.metrics()) {
    double v = std::isfinite(m.value) ? m.value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Command line and run guard.

int Usage(const char* msg) {
  std::fprintf(stderr,
               "xqbench: %s\nusage: xqbench --workload "
               "xmark|messages|cold_start --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--trace-out FILE] [--tiny] "
               "[--corrupt-reference]\n",
               msg);
  return 2;
}

/// Refuses to run with any XQP_* knob set (they override EngineOptions
/// behind the benchmark's back) or with an unoptimized build.
bool GuardOk() {
  bool ok = true;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "XQP_", 4) == 0) {
      std::string knob(*e, std::strcspn(*e, "="));
      std::fprintf(stderr, "xqbench: refusing to run: %s is set\n",
                   knob.c_str());
      ok = false;
    }
  }
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr,
               "xqbench: refusing to run: built without optimization (%s)\n",
               XQBENCH_BUILD_TYPE);
  ok = false;
#endif
  return ok;
}

int Main(int argc, char** argv) {
  Args args;
  bool have_trace = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--corrupt-reference") {
      args.corrupt_reference = true;
    } else if (a == "--workload" || a == "--seed" || a == "--seconds" ||
               a == "--trace" || a == "--scratch" || a == "--trace-out") {
      const char* v = value();
      if (v == nullptr) return Usage(("missing value for " + a).c_str());
      char* end = nullptr;
      if (a == "--workload") {
        args.workload = v;
      } else if (a == "--seed") {
        args.seed = std::strtoull(v, &end, 10);
        have_seed = *v != '\0' && *end == '\0';
      } else if (a == "--seconds") {
        args.seconds = std::strtod(v, &end);
        have_seconds = *v != '\0' && *end == '\0' && args.seconds > 0;
      } else if (a == "--trace") {
        have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
        args.trace = std::strcmp(v, "1") == 0;
      } else if (a == "--scratch") {
        args.scratch = v;
      } else {
        args.trace_out = v;
      }
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (args.workload != "xmark" && args.workload != "messages" &&
      args.workload != "cold_start") {
    return Usage("--workload must be xmark, messages or cold_start");
  }
  if (!have_seed || !have_seconds || !have_trace || args.scratch.empty()) {
    return Usage("--seed, --seconds, --trace 0|1 and --scratch are required");
  }
  if (!GuardOk()) return 2;

  double load[3] = {0, 0, 0};
  getloadavg(load, 3);
  std::printf("# xqbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              args.workload.c_str(), (unsigned long long)args.seed,
              args.seconds, int(args.trace), args.tiny ? " tiny" : "");
  std::printf("# host: nproc=%u threads=%d loadavg=%.2f/%.2f/%.2f "
              "build_type=%s\n",
              std::thread::hardware_concurrency(), Threads(), load[0],
              load[1], load[2], XQBENCH_BUILD_TYPE);
  std::printf("# latencies are this sandbox's, including its fsync and "
              "page-cache behaviour, not a device's\n");
  std::fflush(stdout);

  HostProbe probe;
  Outcome out;
  out.probe = &probe;
  Status st = args.workload == "xmark"      ? RunXMark(args, &out)
              : args.workload == "messages" ? RunMessages(args, &out)
                                            : RunColdStart(args, &out);
  if (!st.ok()) {
    std::fprintf(stderr, "xqbench: %s failed: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  // Host-normalized figures: setup_s is the set-up time rescaled to a host
  // on which a probe leg takes kNominalProbeMs, latency_norm the workload's
  // latency in units of a probe leg.
  double probe_ms = probe.MedianMs();
  double setup_raw_s = Median(out.setups_s);
  double latency_ms = NamedValue(out, "latency_ms");
  out.named.Set("setup_raw_s", setup_raw_s, "s");
  out.named.Set("host.probe_ms", probe_ms, "ms");
  out.e2e.Set("setup_s", setup_raw_s * kNominalProbeMs / probe_ms, "s");
  out.e2e.Set("latency_norm", latency_ms / probe_ms, "ratio");
  out.e2e.Set("peak_rss_mb", PeakRssMb(), "MB");
  std::printf("# set-ups (s):");
  for (double s : out.setups_s) std::printf(" %.4f", s);
  std::printf("\n# host probe (ms): %zu legs, quartiles %.4f %.4f %.4f\n",
              probe.legs().size(), Quantile(probe.legs(), 0.25), probe_ms,
              Quantile(probe.legs(), 0.75));

  out.named.Set("ops_failed_ratio",
                Mean(double(out.ops.failed()), double(out.ops.attempted())),
                "ratio");
  std::printf("# ops: attempted=%llu failed=%llu\n",
              (unsigned long long)out.ops.attempted(),
              (unsigned long long)out.ops.failed());
  PrintReport("workload figures (untraced)", out.named);
  if (args.trace) {
    Report layers = LayerReport(out);
    PrintReport("per-layer metrics (traced run)", layers);
    PrintJson(out, layers);
  } else {
    PrintReport("end-to-end metrics", out.e2e);
    PrintJson(out, out.e2e);
  }
  return 0;
}

}  // namespace
}  // namespace xqp

int main(int argc, char** argv) { return xqp::Main(argc, argv); }

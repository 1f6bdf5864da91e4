// Repository benchmark driver. Runs one of three closed-loop workloads
// against the engine's public entry points (EvaEngine, EvaService,
// vbench), measures it on the host wall clock and the simulated clock,
// checks every query result against a no-reuse oracle, and prints one JSON
// result line. See perfbench/README.md for the workloads, the metric map
// and the steadiness rules.
//
//   evabench --workload explore|skim|fleet-stream --seed N --seconds S
//            --trace 0|1 [--corrupt-expected]
//
// --trace 0 prints the end-to-end metrics. --trace 1 splits the timed
// phase into an untraced half and a traced half, records spans around
// every call into the engine plus the engine's own Tracer spans
// (re-parented under the benchmark's request span), writes a Chrome trace
// and a per-layer self-time table to .bench_out/, and prints the per-layer
// metrics. --corrupt-expected perturbs one expected fingerprint so the
// oracle must report failures (the smoke test uses it).

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/eva_engine.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "service/eva_service.h"
#include "vbench/vbench.h"

namespace {

using namespace eva;  // NOLINT
namespace stdfs = std::filesystem;

// ---------------------------------------------------------------------------
// Workload definitions.

enum class Kind { kSessions, kFleet };

struct Workload {
  std::string name;
  Kind kind = Kind::kSessions;
  catalog::VideoInfo video;
  /// The query set; permutations index into it. fleet-stream holds
  /// VBENCH-HIGH (0-7) followed by VBENCH-LOW (8-15).
  std::vector<std::string> queries;
  int threads = 1;
  double spin_us = 0;
  double budget_bytes = 0;  // 0 = unbounded store
  /// A timed phase runs whole blocks until it has at least this many
  /// queries (and --seconds have passed). 100 gives p90 ten samples beyond
  /// it; explore asks for two blocks, because one lasts about 13 s and the
  /// host's speed swings by up to 18% between 10 s windows.
  int64_t min_queries = 100;
  // fleet-stream only.
  int clients = 0;
  int64_t initial_frames = 0;
  int64_t tick_frames = 0;
  int rounds = 0;
  int checkpoint_every = 0;
};

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "explore") {
    w.video = vbench::ShortUaDetrac();
    w.queries = vbench::VbenchHigh(w.video.name, w.video.num_frames);
    w.min_queries = 256;
  } else if (name == "skim") {
    w.video = vbench::MediumUaDetrac();
    w.queries = vbench::VbenchLow(w.video.name, w.video.num_frames);
    w.threads = 2;
    w.spin_us = 20;
    // About a quarter of the 5.6 MB the unbounded store accounts for this
    // workload, so nearly every query evicts and retracts coverage.
    w.budget_bytes = 1.4e6;
  } else if (name == "fleet-stream") {
    w.kind = Kind::kFleet;
    w.video = vbench::LongUaDetrac();
    w.queries = vbench::VbenchHigh(w.video.name, w.video.num_frames);
    std::vector<std::string> low =
        vbench::VbenchLow(w.video.name, w.video.num_frames);
    w.queries.insert(w.queries.end(), low.begin(), low.end());
    w.clients = 4;
    w.initial_frames = 1000;
    w.tick_frames = 1000;
    w.rounds = 28;
    w.checkpoint_every = 8;
  } else {
    w.name.clear();
  }
  return w;
}

// ---------------------------------------------------------------------------
// Small utilities.

using SteadyClock = std::chrono::steady_clock;
const SteadyClock::time_point kEpoch = SteadyClock::now();

double NowUs() {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() -
                                                   kEpoch)
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) /
             1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Bytes the allocator currently hands out (all arenas plus mmap chunks).
double HeapBytes() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Progress line on stderr, stamped with seconds since start.
void Progress(const std::string& what) {
  std::fprintf(stderr, "evabench [%7.2f s] %s\n", NowUs() / 1e6,
               what.c_str());
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "evabench: %s\n", what.c_str());
  std::exit(2);
}

void Check(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

template <typename T>
T Unwrap(Result<T> r, const std::string& what) {
  Check(r.status(), what);
  return r.MoveValue();
}

// ---------------------------------------------------------------------------
// Result fingerprints and the no-reuse oracle.

/// Order-insensitive fingerprint of a result batch: row count plus the sum
/// of per-row hashes, so equal multisets of rows compare equal whatever
/// order reuse produced them in.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Fingerprint&) const = default;
};

uint64_t RowHash(const Row& row) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const Value& v : row) h = Mix64(h ^ v.Hash());
  return h;
}

Fingerprint FingerprintOf(const Batch& batch) {
  Fingerprint fp;
  for (const Row& row : batch.rows()) {
    ++fp.rows;
    fp.sum += RowHash(row);
  }
  return fp;
}

/// One query execution whose result the oracle checks.
struct Observed {
  size_t query = 0;
  int64_t horizon = 0;
  Fingerprint fp;
};

/// Reference results from a fresh engine with reuse disabled, over the
/// full video. A stream only appends frames, so the correct result of a
/// query at horizon h is the reference rows with id < h; rows are kept
/// sorted by id with prefix sums of their hashes to answer any horizon.
class Oracle {
 public:
  void Build(const Workload& w) {
    engine::EngineOptions options;
    options.optimizer.mode = optimizer::ReuseMode::kNoReuse;
    options.optimizer.reuse_enabled = false;
    options.num_threads = 1;
    options.observability = false;
    auto engine =
        Unwrap(vbench::MakeEngine(options, w.video), "oracle engine");
    for (const std::string& sql : w.queries) {
      engine::QueryResult r = Unwrap(engine->Execute(sql), "oracle " + sql);
      const int id_col = r.batch.schema().IndexOf("id");
      if (id_col < 0) Die("oracle: result without an id column: " + sql);
      std::vector<std::pair<int64_t, uint64_t>> rows;
      for (const Row& row : r.batch.rows()) {
        rows.emplace_back(row[static_cast<size_t>(id_col)].AsInt64(),
                          RowHash(row));
      }
      std::sort(rows.begin(), rows.end());
      Rows out;
      out.prefix.push_back(0);
      for (const auto& [id, h] : rows) {
        out.ids.push_back(id);
        out.prefix.push_back(out.prefix.back() + h);
      }
      queries_.push_back(std::move(out));
    }
  }

  Fingerprint Expected(size_t query, int64_t horizon) const {
    const Rows& r = queries_.at(query);
    const size_t n = static_cast<size_t>(
        std::lower_bound(r.ids.begin(), r.ids.end(), horizon) -
        r.ids.begin());
    Fingerprint fp{n, r.prefix[n]};
    if (corrupt_ && query == 0) ++fp.rows;
    return fp;
  }

  /// Makes every expected fingerprint of query 0 wrong (smoke test).
  void Corrupt() { corrupt_ = true; }

 private:
  struct Rows {
    std::vector<int64_t> ids;
    std::vector<uint64_t> prefix;  // prefix[i] = sum of the first i hashes
  };
  std::vector<Rows> queries_;
  bool corrupt_ = false;
};

// ---------------------------------------------------------------------------
// Counters the engine exports, read back from its Prometheus exposition.

using Counters = std::map<std::string, double>;

/// Sums every sample line of the registry's exposition by metric name
/// (all label sets of a family fold into one value).
Counters ReadCounters(const obs::MetricsRegistry& registry) {
  Counters out;
  const std::string text = registry.RenderPrometheus();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    const size_t name_end = line.find_first_of("{ ");
    const size_t value_at = line.rfind(' ');
    if (name_end == std::string::npos || value_at == std::string::npos) {
      continue;
    }
    out[line.substr(0, name_end)] += std::strtod(line.c_str() + value_at + 1,
                                                 nullptr);
  }
  return out;
}

double Delta(const Counters& before, const Counters& after,
             const std::string& name) {
  auto get = [&name](const Counters& c) {
    auto it = c.find(name);
    return it == c.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

// ---------------------------------------------------------------------------
// The benchmark's own spans (traced run only).

/// Spans recorded from the benchmark around its calls into each layer,
/// plus the engine Tracer's spans copied in under them. Times are wall
/// microseconds since the benchmark started.
class TraceLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    int parent = -1;
    int tid = 1;
    double start_us = 0;
    double end_us = 0;
    std::string request;
    std::vector<std::pair<std::string, double>> args;
  };

  int Begin(const std::string& name, const std::string& layer, int parent,
            int tid, const std::string& request = "") {
    Span s;
    s.name = name;
    s.layer = layer;
    s.parent = parent;
    s.tid = tid;
    s.start_us = s.end_us = NowUs();
    s.request = request;
    spans_.push_back(std::move(s));
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index) { SetEnd(index, NowUs()); }
  void SetEnd(int index, double end_us) {
    spans_.at(static_cast<size_t>(index)).end_us = end_us;
  }
  void AddArg(int index, const std::string& key, double value) {
    spans_.at(static_cast<size_t>(index)).args.emplace_back(key, value);
  }

  /// Copies the engine Tracer's spans recorded since its last Clear,
  /// hanging each root span under the benchmark span given for its
  /// session id ("" = the single-session path), then clears the Tracer.
  /// Fails loudly when the Tracer dropped spans: a layer table built from
  /// a partial trace would misattribute time.
  void Harvest(obs::Tracer* tracer, const obs::MetricsRegistry& registry,
               const std::map<std::string, int>& parent_by_session) {
    if (tracer->dropped() > 0 ||
        ReadCounters(registry)["eva_trace_spans_dropped_total"] > 0) {
      Die("engine tracer dropped " + std::to_string(tracer->dropped()) +
          " spans; refusing to report a partial layer table");
    }
    const double offset_us = NowUs() - tracer->WallNowUs();
    const std::vector<obs::SpanRecord>& records = tracer->spans();
    const int base = static_cast<int>(spans_.size());
    for (const obs::SpanRecord& rec : records) {
      Span s;
      s.name = rec.name;
      s.layer = LayerOf(rec.name);
      s.start_us = rec.wall_start_us + offset_us;
      s.end_us = (rec.open ? tracer->WallNowUs() : rec.wall_end_us) +
                 offset_us;
      if (rec.parent >= 0) {
        s.parent = base + rec.parent;
      } else {
        std::string session;
        for (const auto& [k, v] : rec.attributes) {
          if (k == "session_id") session = v;
        }
        auto it = parent_by_session.find(session);
        s.parent = it == parent_by_session.end() ? -1 : it->second;
      }
      if (s.parent >= 0) {
        const Span& p = spans_[static_cast<size_t>(s.parent)];
        s.tid = p.tid;
        s.request = p.request;
      }
      spans_.push_back(std::move(s));
    }
    tracer->Clear();
  }

  /// Wall time of `index` not covered by any of its children.
  double SelfUs(size_t index) const {
    const Span& s = spans_[index];
    std::vector<std::pair<double, double>> kids;
    for (size_t c : children_[index]) {
      kids.emplace_back(std::max(spans_[c].start_us, s.start_us),
                        std::min(spans_[c].end_us, s.end_us));
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = s.start_us;
    for (const auto& [lo, hi] : kids) {
      const double from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    return (s.end_us - s.start_us) - covered;
  }

  /// Indexes parent->children; call once recording is over.
  void Finish() {
    children_.assign(spans_.size(), {});
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].parent >= 0) {
        children_[static_cast<size_t>(spans_[i].parent)].push_back(i);
      }
    }
  }

  /// Sum of self time (µs) per span name, restricted to spans at or after
  /// `from_us`.
  std::map<std::string, double> SelfUsByName(double from_us) const {
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].start_us >= from_us) out[spans_[i].name] += SelfUs(i);
    }
    return out;
  }
  std::map<std::string, double> WallUsByName(double from_us) const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) {
      if (s.start_us >= from_us) out[s.name] += s.end_us - s.start_us;
    }
    return out;
  }

  std::string RenderChrome() const {
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[160];
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"name\":\"" + s.name + "\",\"cat\":\"" + s.layer +
             "\",\"ph\":\"X\",\"pid\":1";
      std::snprintf(buf, sizeof(buf),
                    ",\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{", s.tid,
                    s.start_us, s.end_us - s.start_us);
      out += buf;
      out += "\"request\":\"" + s.request + "\"";
      std::snprintf(buf, sizeof(buf), ",\"span\":%zu,\"parent\":%d", i,
                    s.parent);
      out += buf;
      for (const auto& [k, v] : s.args) {
        std::snprintf(buf, sizeof(buf), ",\"%s\":%.17g", k.c_str(), v);
        out += buf;
      }
      out += "}}";
    }
    out += "\n]}\n";
    return out;
  }

  /// Per-layer self-time table over every recorded span.
  std::string RenderLayerTable() const {
    std::map<std::string, std::pair<int64_t, double>> by_layer;
    double total = 0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const double self = SelfUs(i);
      auto& [count, us] = by_layer[spans_[i].layer];
      ++count;
      us += self;
      total += self;
    }
    std::vector<std::pair<double, std::string>> order;
    for (const auto& [layer, v] : by_layer) order.emplace_back(v.second, layer);
    std::sort(order.rbegin(), order.rend());
    std::string out = "layer            spans      self_ms   share\n";
    char buf[128];
    for (const auto& [us, layer] : order) {
      std::snprintf(buf, sizeof(buf), "%-14s %7" PRId64 " %12.3f %6.2f%%\n",
                    layer.c_str(), by_layer[layer].first, us / 1000.0,
                    100.0 * Ratio(us, total));
      out += buf;
    }
    return out;
  }

 private:
  static std::string LayerOf(const std::string& engine_span) {
    if (engine_span == "query") return "engine";
    if (engine_span == "parse") return "parser";
    if (engine_span == "optimize") return "optimizer";
    if (engine_span == "symbolic-diff") return "symbolic";
    return "exec";  // execute and its per-operator children
  }

  std::vector<Span> spans_;
  std::vector<std::vector<size_t>> children_;
};

// ---------------------------------------------------------------------------
// Engine set-up.

struct SetupTimes {
  double register_udfs_s = 0;
  double create_video_s = 0;
  double enable_wal_s = 0;
  double total_s = 0;
};

/// An engine (or a service over one) with its private metrics registry,
/// so counter deltas belong to this engine alone. Member order keeps the
/// registry alive until the engine is gone.
struct Instance {
  std::unique_ptr<obs::MetricsRegistry> registry;
  std::unique_ptr<engine::EvaEngine> owned;  // null once a service adopts it
  std::unique_ptr<service::EvaService> service;
  SetupTimes setup;

  engine::EvaEngine* engine() {
    return service != nullptr ? service->engine() : owned.get();
  }
};

ingest::StreamOptions StreamOptionsFor(const Workload& w) {
  ingest::StreamOptions s;
  s.initial_frames = w.initial_frames;
  s.total_frames = w.video.num_frames;
  s.buffer_frames = w.video.num_frames;
  return s;
}

/// Builds the workload's engine the way a user would: options, UDF
/// registration, the video (a stream for fleet-stream), and for
/// fleet-stream the WAL on `wal_dir` and the service. With an empty
/// `wal_dir` a fleet-stream engine is left unarmed and unwrapped (the
/// recovery path arms it itself).
std::unique_ptr<Instance> MakeInstance(const Workload& w,
                                       const std::string& wal_dir,
                                       TraceLog* trace) {
  auto inst = std::make_unique<Instance>();
  const double t0 = NowUs();
  int span = trace != nullptr ? trace->Begin("setup", "setup", -1, 1) : -1;
  auto step = [&](const char* name) {
    return trace != nullptr ? trace->Begin(name, "setup", span, 1) : -1;
  };
  auto end_step = [&](int s) {
    if (s >= 0) trace->End(s);
  };
  inst->registry = std::make_unique<obs::MetricsRegistry>();
  engine::EngineOptions options;
  options.num_threads = w.threads;
  options.udf_spin_us = w.spin_us;
  options.storage_budget_bytes = w.budget_bytes;
  inst->owned = std::make_unique<engine::EvaEngine>(
      options, std::make_shared<catalog::Catalog>());
  inst->owned->set_metrics_registry(inst->registry.get());

  double t = NowUs();
  int s = step("register_udfs");
  Check(vbench::RegisterStandardUdfs(inst->owned.get()), "register UDFs");
  end_step(s);
  inst->setup.register_udfs_s = (NowUs() - t) / 1e6;

  t = NowUs();
  s = step("create_video");
  if (w.kind == Kind::kFleet) {
    Check(inst->owned->RegisterStream(w.video, StreamOptionsFor(w)),
          "register stream");
  } else {
    Check(inst->owned->CreateVideo(w.video), "create video");
  }
  end_step(s);
  inst->setup.create_video_s = (NowUs() - t) / 1e6;

  if (w.kind == Kind::kFleet && !wal_dir.empty()) {
    t = NowUs();
    s = step("enable_wal");
    Check(inst->owned->EnableWal(wal_dir), "enable WAL");
    end_step(s);
    inst->setup.enable_wal_s = (NowUs() - t) / 1e6;
    inst->service =
        std::make_unique<service::EvaService>(std::move(inst->owned));
  }
  if (span >= 0) {
    trace->End(span);
    // The CREATE UDF statements left query spans; the setup spans already
    // time them, and the per-query layer figures must not count them.
    inst->engine()->tracer().Clear();
  }
  inst->setup.total_s = (NowUs() - t0) / 1e6;
  return inst;
}

// ---------------------------------------------------------------------------
// The timed phase.

/// Work of one block: deterministic for a seed, so it carries the
/// simulated-clock and count metrics.
struct Block {
  exec::QueryMetrics metrics;  // summed over the block's queries
  SimClock::Snapshot sim;      // every simulated charge of the block
  Counters counters;           // registry deltas (traced run only)
  double accounted_bytes = 0;  // view store footprint at block end
  int64_t coverage_cells = 0;  // Σ coverage atoms at block end
  int64_t view_rows = 0;
};

struct Phase {
  int64_t queries = 0;
  int64_t failed = 0;
  std::vector<double> query_ms;
  std::vector<double> round_ms;
  std::vector<double> tick_ms;        // the Ingest call (fleet-stream)
  std::vector<double> checkpoint_ms;  // the Checkpoint call (fleet-stream)
  std::vector<SetupTimes> setups;     // per-pass set-ups (fleet-stream)
  double wall_s = 0;  // timed work only (pass set-ups excluded)
  double cpu_s = 0;
  double symbolic_wall_us = 0;
  bool have_block = false;
  Block block;
  std::vector<Observed> observed;
  double trace_from_us = 0;
};

int64_t CoverageCells(const engine::EvaEngine& engine) {
  int64_t n = 0;
  for (const auto& [key, entry] : engine.udf_manager().entries()) {
    n += engine.udf_manager().CoverageAtomCount(key);
  }
  return n;
}

int64_t ViewRows(const Counters& c) {
  auto it = c.find("eva_view_store_rows");
  return it == c.end() ? 0 : static_cast<int64_t>(it->second);
}

/// Ends a block: checks it against the first one (same seed, same work,
/// so the simulated time and UDF counts must match bit for bit) or keeps
/// it as the reference.
void CloseBlock(Phase* phase, Block block) {
  if (!phase->have_block) {
    phase->block = std::move(block);
    phase->have_block = true;
    return;
  }
  if (block.sim.Total() != phase->block.sim.Total() ||
      block.metrics.TotalInvocations() !=
          phase->block.metrics.TotalInvocations() ||
      block.metrics.TotalReused() != phase->block.metrics.TotalReused()) {
    std::fprintf(stderr,
                 "evabench: block not deterministic: sim %.17g vs %.17g\n",
                 block.sim.Total(), phase->block.sim.Total());
    ++phase->failed;
  }
}

/// explore / skim: closed-loop analyst sessions on one engine; each
/// session clears reuse state and runs its permutation of the query set.
Phase RunSessions(const Workload& w, Instance* inst,
                  const std::vector<std::vector<size_t>>& perms,
                  double seconds, TraceLog* trace) {
  engine::EvaEngine* engine = inst->engine();
  Phase phase;
  phase.trace_from_us = NowUs();
  const double cpu0 = CpuSeconds();
  const double sym0 = engine->udf_manager().symbolic_wall_us();
  const double t0 = NowUs();
  Block block;
  Counters block_start;
  for (size_t s = 0;; ++s) {
    const size_t slot = s % perms.size();
    if (slot == 0) {
      block = Block{};
      if (trace != nullptr) block_start = ReadCounters(*inst->registry);
    }
    const std::string session_req = std::string("s") + std::to_string(s);
    const int session_span =
        trace != nullptr ? trace->Begin("session", "driver", -1, 1, session_req)
                         : -1;
    const double ts = NowUs();
    engine->ClearReuseState();
    for (size_t i = 0; i < perms[slot].size(); ++i) {
      const size_t q = perms[slot][i];
      int qspan = -1;
      Counters before;
      if (trace != nullptr) {
        qspan = trace->Begin("request", "client", session_span, 1,
                             session_req + ".q" + std::to_string(i));
        before = ReadCounters(*inst->registry);
      }
      const double tq = NowUs();
      Result<engine::QueryResult> r = engine->Execute(w.queries[q]);
      phase.query_ms.push_back((NowUs() - tq) / 1000.0);
      ++phase.queries;
      if (trace != nullptr) {
        trace->End(qspan);
        trace->Harvest(&engine->tracer(), *inst->registry, {{"", qspan}});
        const Counters after = ReadCounters(*inst->registry);
        for (const char* c : {"eva_udf_invocations_total",
                              "eva_udf_reused_total",
                              "eva_view_probe_hits_total",
                              "eva_materialized_rows_total"}) {
          trace->AddArg(qspan, c, Delta(before, after, c));
        }
      }
      if (!r.ok()) {
        std::fprintf(stderr, "evabench: query failed: %s\n",
                     r.status().ToString().c_str());
        ++phase.failed;
        continue;
      }
      phase.observed.push_back(
          {q, w.video.num_frames, FingerprintOf(r.value().batch)});
      block.metrics.Accumulate(r.value().metrics);
    }
    phase.round_ms.push_back((NowUs() - ts) / 1000.0);
    if (session_span >= 0) trace->End(session_span);
    if (slot + 1 == perms.size()) {
      block.sim = block.metrics.breakdown;
      block.accounted_bytes = engine->views().TotalSizeBytes();
      block.coverage_cells = CoverageCells(*engine);
      if (trace != nullptr) {
        const Counters end = ReadCounters(*inst->registry);
        for (const auto& [name, v] : end) {
          block.counters[name] = Delta(block_start, end, name);
        }
        block.view_rows = ViewRows(end);
      }
      CloseBlock(&phase, std::move(block));
      if ((NowUs() - t0) / 1e6 >= seconds &&
          phase.queries >= w.min_queries) {
        break;
      }
    }
  }
  phase.wall_s = (NowUs() - t0) / 1e6;
  phase.cpu_s = CpuSeconds() - cpu0;
  phase.symbolic_wall_us = engine->udf_manager().symbolic_wall_us() - sym0;
  return phase;
}

/// What the fleet-stream run leaves for the recovery check.
struct FleetTail {
  std::string wal_dir;
  std::vector<size_t> last_round;  // query index per client
  int64_t acknowledged_horizon = 0;
  double accounted_bytes = 0;
};

std::string PassDir(const std::string& work_dir, int pass) {
  return work_dir + "/wal-" + std::to_string(pass);
}

/// fleet-stream: `clients` sessions on one EvaService over a growing
/// stream with the WAL armed. Each round every client submits its next
/// query, the driver waits on all of them, then ingests one tick. A pass
/// is the whole stream (one block); passes repeat on fresh engines until
/// the time is up.
Phase RunFleet(const Workload& w, const std::string& work_dir,
               int* pass_counter,
               const std::vector<std::vector<size_t>>& perms, double seconds,
               TraceLog* trace, FleetTail* tail) {
  Phase phase;
  phase.trace_from_us = NowUs();
  const double cpu0 = CpuSeconds();
  double sym_us = 0;
  double excluded_s = 0;  // pass set-ups inside the phase
  const double t0 = NowUs();
  for (;;) {
    const int pass = (*pass_counter)++;
    const std::string dir = PassDir(work_dir, pass);
    stdfs::remove_all(dir);
    const double ts = NowUs();
    std::unique_ptr<Instance> inst = MakeInstance(w, dir, trace);
    phase.setups.push_back(inst->setup);
    service::EvaService* service = inst->service.get();
    engine::EvaEngine* engine = inst->engine();
    std::vector<int64_t> session_ids;
    for (int c = 0; c < w.clients; ++c) {
      session_ids.push_back(
          service->CreateSession("client" + std::to_string(c))->id());
    }
    excluded_s += (NowUs() - ts) / 1e6;

    Block block;
    const Counters start =
        trace != nullptr ? ReadCounters(*inst->registry) : Counters{};
    const SimClock::Snapshot sim0 = engine->clock().TakeSnapshot();
    const double sym0 = engine->udf_manager().symbolic_wall_us();
    int64_t horizon = w.initial_frames;
    std::vector<size_t> round_queries(static_cast<size_t>(w.clients));
    for (int round = 0; round < w.rounds; ++round) {
      const std::string round_req =
          std::string("p") + std::to_string(pass) + ".r" +
          std::to_string(round);
      const int round_span =
          trace != nullptr ? trace->Begin("round", "driver", -1, 1, round_req)
                           : -1;
      const double tr = NowUs();
      std::vector<std::future<Result<engine::QueryResult>>> futures;
      std::vector<double> submitted;
      std::vector<int> qspans;
      std::map<std::string, int> parent_by_session;
      for (int c = 0; c < w.clients; ++c) {
        const std::vector<size_t>& perm = perms[static_cast<size_t>(c)];
        const size_t q = perm[static_cast<size_t>(round) % perm.size()];
        round_queries[static_cast<size_t>(c)] = q;
        if (trace != nullptr) {
          const int qs = trace->Begin("request", "service", round_span, 2 + c,
                                      round_req + ".c" + std::to_string(c));
          qspans.push_back(qs);
          parent_by_session[std::to_string(
              session_ids[static_cast<size_t>(c)])] = qs;
        }
        submitted.push_back(NowUs());
        futures.push_back(service->Submit(session_ids[static_cast<size_t>(c)],
                                          w.queries[q]));
      }
      for (int c = 0; c < w.clients; ++c) {
        Result<engine::QueryResult> r = futures[static_cast<size_t>(c)].get();
        const double ready = NowUs();
        phase.query_ms.push_back((ready - submitted[static_cast<size_t>(c)]) /
                                 1000.0);
        ++phase.queries;
        if (trace != nullptr) {
          trace->SetEnd(qspans[static_cast<size_t>(c)], ready);
        }
        if (!r.ok()) {
          std::fprintf(stderr, "evabench: query failed: %s\n",
                       r.status().ToString().c_str());
          ++phase.failed;
          continue;
        }
        phase.observed.push_back({round_queries[static_cast<size_t>(c)],
                                  horizon, FingerprintOf(r.value().batch)});
        block.metrics.Accumulate(r.value().metrics);
      }
      const int ingest_span =
          trace != nullptr ? trace->Begin("ingest", "ingest", round_span, 1,
                                          round_req)
                           : -1;
      const double ti = NowUs();
      auto flushed = service->Ingest(w.video.name, w.tick_frames);
      const double tick_end = NowUs();
      if (ingest_span >= 0) trace->End(ingest_span);
      phase.tick_ms.push_back((tick_end - ti) / 1000.0);
      phase.round_ms.push_back((tick_end - tr) / 1000.0);
      if (!flushed.ok()) Die("ingest: " + flushed.status().ToString());
      horizon = flushed.value().visible;
      if (trace != nullptr) {
        trace->End(round_span);
        trace->Harvest(&engine->tracer(), *inst->registry, parent_by_session);
      }
      if ((round + 1) % w.checkpoint_every == 0) {
        const int cs = trace != nullptr
                           ? trace->Begin("checkpoint", "wal", -1, 1, round_req)
                           : -1;
        const double tc = NowUs();
        Check(service->Checkpoint(), "checkpoint");
        phase.checkpoint_ms.push_back((NowUs() - tc) / 1000.0);
        if (cs >= 0) trace->End(cs);
      }
    }
    block.sim = engine->clock().TakeSnapshot() - sim0;
    block.accounted_bytes = engine->views().TotalSizeBytes();
    block.coverage_cells = CoverageCells(*engine);
    sym_us += engine->udf_manager().symbolic_wall_us() - sym0;
    if (trace != nullptr) {
      const Counters end = ReadCounters(*inst->registry);
      for (const auto& [name, v] : end) {
        block.counters[name] = Delta(start, end, name);
      }
      block.view_rows = ViewRows(end);
    }
    tail->wal_dir = dir;
    tail->last_round = round_queries;
    tail->acknowledged_horizon = horizon;
    tail->accounted_bytes = block.accounted_bytes;
    CloseBlock(&phase, std::move(block));
    if (pass > 0) stdfs::remove_all(PassDir(work_dir, pass - 1));
    const double te = NowUs();
    inst.reset();  // drains and joins the service executor
    excluded_s += (NowUs() - te) / 1e6;
    if ((NowUs() - t0) / 1e6 - excluded_s >= seconds &&
        phase.queries >= w.min_queries) {
      break;
    }
  }
  phase.wall_s = (NowUs() - t0) / 1e6 - excluded_s;
  phase.cpu_s = CpuSeconds() - cpu0;
  phase.symbolic_wall_us = sym_us;
  return phase;
}

// ---------------------------------------------------------------------------
// After the timed phase: heap, recovery and the oracle.

struct After {
  double view_heap_bytes = 0;
  double accounted_bytes = 0;
  std::vector<double> recover_s;
  int64_t replayed_records = 0;
  std::vector<Observed> rerun;  // results read back after recovery
};

constexpr int kRecoveries = 7;

After RecoverSessions(const Workload& w, Instance* inst,
                      const std::vector<size_t>& last_session,
                      const std::string& work_dir, TraceLog* trace) {
  After after;
  engine::EvaEngine* engine = inst->engine();
  // A final untimed session from a known permutation, so the state that
  // is sized and recovered is the same in every run of a seed.
  engine->ClearReuseState();
  for (size_t q : last_session) {
    Unwrap(engine->Execute(w.queries[q]), "final session");
  }
  if (trace != nullptr) engine->tracer().Clear();
  const std::string snap = work_dir + "/snapshot";
  stdfs::remove_all(snap);
  Check(engine->SaveViews(snap), "save views");
  after.accounted_bytes = engine->views().TotalSizeBytes();
  const double heap0 = HeapBytes();
  engine->ClearReuseState();
  after.view_heap_bytes = heap0 - HeapBytes();

  for (int k = 0; k < kRecoveries; ++k) {
    std::unique_ptr<Instance> rec = MakeInstance(w, "", nullptr);
    const int span =
        trace != nullptr ? trace->Begin("recover", "storage", -1, 1) : -1;
    const double t = NowUs();
    Check(rec->engine()->LoadViews(snap), "load views");
    after.recover_s.push_back((NowUs() - t) / 1e6);
    if (span >= 0) trace->End(span);
    if (k + 1 < kRecoveries) continue;
    for (size_t q : last_session) {
      Result<engine::QueryResult> r = rec->engine()->Execute(w.queries[q]);
      if (!r.ok()) Die("re-run after recovery: " + r.status().ToString());
      after.rerun.push_back(
          {q, w.video.num_frames, FingerprintOf(r.value().batch)});
    }
  }
  return after;
}

After RecoverFleet(const Workload& w, const FleetTail& tail,
                   TraceLog* trace) {
  After after;
  after.accounted_bytes = tail.accounted_bytes;
  for (int k = 0; k < kRecoveries; ++k) {
    std::unique_ptr<Instance> rec = MakeInstance(w, "", nullptr);
    const int span =
        trace != nullptr ? trace->Begin("recover", "wal", -1, 1) : -1;
    const double t = NowUs();
    Check(rec->engine()->EnableWal(tail.wal_dir), "recover from WAL");
    after.recover_s.push_back((NowUs() - t) / 1e6);
    if (span >= 0) trace->End(span);
    after.replayed_records = rec->engine()->last_replay().records;
    if (k + 1 < kRecoveries) continue;
    // The last round again, at the acknowledged horizon: everything the
    // service acknowledged must read back, and coverage must not claim
    // frames it does not hold.
    for (size_t q : tail.last_round) {
      Result<engine::QueryResult> r = rec->engine()->Execute(w.queries[q]);
      if (!r.ok()) Die("re-run after recovery: " + r.status().ToString());
      after.rerun.push_back(
          {q, tail.acknowledged_horizon, FingerprintOf(r.value().batch)});
    }
    const double heap0 = HeapBytes();
    rec->engine()->ClearReuseState();
    after.view_heap_bytes = heap0 - HeapBytes();
  }
  return after;
}

int64_t CountMismatches(const Oracle& oracle,
                        const std::vector<Observed>& observed) {
  int64_t bad = 0;
  for (const Observed& o : observed) {
    if (!(oracle.Expected(o.query, o.horizon) == o.fp)) ++bad;
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Output.

class MetricsJson {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
             unit + "\"}";
  }
  std::string Render(bool correct, int64_t attempted, int64_t failed) const {
    return std::string("{\"correct\": ") + (correct ? "true" : "false") +
           ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
           body_ + "}}";
  }

 private:
  std::string body_;
};

void AddEndToEnd(MetricsJson* m, const Phase& p,
                 const std::vector<SetupTimes>& setups, double peak_rss_mb) {
  std::vector<double> setup_s;
  for (const SetupTimes& s : setups) setup_s.push_back(s.total_s);
  m->Add("queries_per_s", Ratio(static_cast<double>(p.queries), p.wall_s),
         "1/s");
  m->Add("query_p50_ms", Percentile(p.query_ms, 0.50), "ms");
  m->Add("query_p90_ms", Percentile(p.query_ms, 0.90), "ms");
  m->Add("round_mean_ms",
         Ratio(Sum(p.round_ms), static_cast<double>(p.round_ms.size())), "ms");
  m->Add("sim_total_s", p.block.sim.Total() / 1000.0, "s");
  m->Add("peak_rss_mb", peak_rss_mb, "MB");
  m->Add("setup_s", Median(setup_s), "s");
}

void AddPerLayer(MetricsJson* m, const Workload& w, const Phase& untraced,
                 const Phase& p, const After& a, const TraceLog& trace,
                 const std::vector<SetupTimes>& setups) {
  // Converts a span total in µs to mean ms per query.
  const double per_query_ms =
      1.0 / 1000.0 / static_cast<double>(std::max<int64_t>(p.queries, 1));
  const auto self = trace.SelfUsByName(p.trace_from_us);
  const auto wall = trace.WallUsByName(p.trace_from_us);
  auto at = [](const std::map<std::string, double>& mp, const char* k) {
    auto it = mp.find(k);
    return it == mp.end() ? 0.0 : it->second;
  };
  const Block& b = p.block;
  auto counter = [&b](const char* name) {
    auto it = b.counters.find(name);
    return it == b.counters.end() ? 0.0 : it->second;
  };
  const double mb = 1024.0 * 1024.0;

  // engine
  m->Add("engine.self_wall_pct",
         100.0 * Ratio(at(self, "query"), at(wall, "query")), "%");
  const std::pair<const char*, CostCategory> sims[] = {
      {"engine.sim_udf_s", CostCategory::kUdf},
      {"engine.sim_read_video_s", CostCategory::kReadVideo},
      {"engine.sim_read_view_s", CostCategory::kReadView},
      {"engine.sim_materialize_s", CostCategory::kMaterialize},
      {"engine.sim_optimize_s", CostCategory::kOptimize},
      {"engine.sim_other_s", CostCategory::kOther},
      {"engine.sim_ingest_s", CostCategory::kIngest}};
  for (const auto& [name, cat] : sims) m->Add(name, b.sim[cat] / 1000.0, "s");
  // parser, optimizer, symbolic
  m->Add("parser.wall_ms", at(wall, "parse") * per_query_ms, "ms");
  m->Add("optimizer.self_wall_ms", at(self, "optimize") * per_query_ms, "ms");
  m->Add("symbolic.diff_wall_ms", at(wall, "symbolic-diff") * per_query_ms,
         "ms");
  m->Add("symbolic.manager_wall_ms", p.symbolic_wall_us * per_query_ms, "ms");
  m->Add("symbolic.coverage_cells", static_cast<double>(b.coverage_cells),
         "count");
  m->Add("symbolic.cache_hit_pct",
         100.0 * Ratio(static_cast<double>(b.metrics.symbolic_cache_hits),
                       static_cast<double>(b.metrics.symbolic_cache_hits +
                                           b.metrics.symbolic_cache_misses)),
         "%");
  // exec
  m->Add("exec.self_wall_ms", at(self, "execute") * per_query_ms, "ms");
  m->Add("exec.segments_skipped", counter("eva_segments_skipped_total"),
         "count");
  m->Add("exec.rows_filtered_vectorized",
         counter("eva_rows_filtered_vectorized_total"), "count");
  // udf
  const double inv = static_cast<double>(b.metrics.TotalInvocations());
  const double reused = static_cast<double>(b.metrics.TotalReused());
  m->Add("udf.invocations", inv, "count");
  m->Add("udf.reused", reused, "count");
  m->Add("udf.hit_pct", 100.0 * Ratio(reused, inv), "%");
  m->Add("udf.retries", static_cast<double>(b.metrics.udf_retries), "count");
  // runtime
  m->Add("runtime.cpu_per_wall", Ratio(p.cpu_s, p.wall_s), "ratio");
  // storage
  // Footprint and heap of one and the same store state: the final one.
  m->Add("storage.view_accounted_mb", a.accounted_bytes / mb, "MB");
  m->Add("storage.view_heap_mb", a.view_heap_bytes / mb, "MB");
  m->Add("storage.heap_per_accounted",
         Ratio(a.view_heap_bytes, a.accounted_bytes), "ratio");
  m->Add("storage.segments_sealed", counter("eva_segments_sealed_total"),
         "count");
  m->Add("storage.bytes_per_row",
         Ratio(b.accounted_bytes, static_cast<double>(b.view_rows)), "B/row");
  const double hits = counter("eva_view_probe_hits_total");
  m->Add("storage.probe_hit_pct",
         100.0 * Ratio(hits, hits + counter("eva_view_probe_misses_total")),
         "%");
  m->Add("storage.bloom_negatives", counter("eva_bloom_negatives_total"),
         "count");
  // A restart: EnableWal on the WAL (fleet-stream) or LoadViews of a
  // snapshot (explore, skim). Not an end-to-end metric: a 3 s window of
  // CPU-bound work spreads too much across runs on a drifting host.
  m->Add("storage.recover_ms", Median(a.recover_s) * 1000, "ms");
  // lifecycle
  m->Add("lifecycle.evictions", counter("eva_lifecycle_evictions_total"),
         "count");
  m->Add("lifecycle.evicted_mb",
         counter("eva_lifecycle_evicted_bytes_total") / mb, "MB");
  // wal, ingest, service
  m->Add("wal.records", counter("eva_wal_records_total"), "count");
  m->Add("wal.bytes_per_row",
         Ratio(counter("eva_wal_bytes_total"),
               counter("eva_materialized_rows_total")),
         "B/row");
  m->Add("wal.checkpoint_ms", Median(p.checkpoint_ms), "ms");
  m->Add("wal.replayed_records", static_cast<double>(a.replayed_records),
         "count");
  m->Add("ingest.tick_ms", Median(p.tick_ms), "ms");
  // Client wait beyond the engine's own query span: queueing behind the
  // other sessions plus the future hand-off.
  m->Add("service.queue_wait_ms",
         w.kind == Kind::kFleet
             ? (Sum(p.query_ms) * 1000.0 - at(wall, "query")) * per_query_ms
             : 0,
         "ms");
  // setup
  std::vector<double> reg, video, wal;
  for (const SetupTimes& s : setups) {
    reg.push_back(s.register_udfs_s * 1000);
    video.push_back(s.create_video_s * 1000);
    wal.push_back(s.enable_wal_s * 1000);
  }
  m->Add("setup.register_udfs_ms", Median(reg), "ms");
  m->Add("setup.create_video_ms", Median(video), "ms");
  m->Add("setup.enable_wal_ms", Median(wal), "ms");
  // tracing overhead: the same workload, untraced then traced, in one run
  const double qps_untraced =
      Ratio(static_cast<double>(untraced.queries), untraced.wall_s);
  const double qps_traced = Ratio(static_cast<double>(p.queries), p.wall_s);
  m->Add("trace.untraced_queries_per_s", qps_untraced, "1/s");
  m->Add("trace.traced_queries_per_s", qps_traced, "1/s");
  m->Add("trace.overhead_pct", 100.0 * (Ratio(qps_untraced, qps_traced) - 1),
         "%");
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool corrupt_expected = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value().c_str(), nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      a.trace = std::atoi(value().c_str());
      have_trace = true;
    } else if (flag == "--corrupt-expected") {
      a.corrupt_expected = true;
    } else {
      Die("unknown argument " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace || a.workload.empty()) {
    Die("usage: evabench --workload W --seed N --seconds S --trace 0|1");
  }
  if (!(a.seconds > 0) || (a.trace != 0 && a.trace != 1)) {
    Die("--seconds must be positive and --trace 0 or 1");
  }
  return a;
}

/// The seeded query orders, as indexes into w.queries.
///
/// explore and skim: the seed picks one base permutation of the query set,
/// and a block is a session per rotation of it, run forward and reversed.
/// So in every block each query takes each position twice and precedes
/// each other query in exactly half the sessions. The seed still gives its
/// own orders, but the block's work, and with it the wall time, moves
/// little between seeds.
///
/// fleet-stream: one order per client; even clients run VBENCH-HIGH and
/// odd ones VBENCH-LOW, and clients 2 and 3 run the reverses of the orders
/// of clients 0 and 1.
std::vector<std::vector<size_t>> Permutations(const Workload& w,
                                              uint64_t seed) {
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < w.queries.size(); ++i) index[w.queries[i]] = i;
  auto permute = [&](size_t first, size_t count, uint64_t s) {
    const auto begin = w.queries.begin() + static_cast<long>(first);
    std::vector<size_t> out;
    for (const std::string& q :
         vbench::Permute({begin, begin + static_cast<long>(count)}, s)) {
      out.push_back(index[q]);
    }
    return out;
  };
  auto reversed = [](std::vector<size_t> v) {
    std::reverse(v.begin(), v.end());
    return v;
  };
  std::vector<std::vector<size_t>> out;
  if (w.kind == Kind::kFleet) {
    out.push_back(permute(0, 8, Mix64(seed * 131)));
    out.push_back(permute(8, 8, Mix64(seed * 131 + 1)));
    out.push_back(reversed(out[0]));
    out.push_back(reversed(out[1]));
  } else {
    std::vector<size_t> rotation = permute(0, w.queries.size(), Mix64(seed));
    for (size_t k = 0; k < rotation.size(); ++k) {
      out.push_back(rotation);
      out.push_back(reversed(rotation));
      std::rotate(rotation.begin(), rotation.begin() + 1, rotation.end());
    }
  }
  return out;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const Workload w = MakeWorkload(args.workload);
  if (w.name.empty()) Die("unknown workload " + args.workload);
  // The engine reads these as fallbacks; the benchmark pins its own
  // configuration.
  for (const char* env : {"EVA_THREADS", "EVA_FAULTS", "EVA_METRICS_PORT",
                          "EVA_EVENT_LOG"}) {
    unsetenv(env);
  }
  // Scratch space for WAL directories and snapshots, inside the checkout.
  const std::string work_root = ".bench_run";
  const std::string work_dir =
      work_root + "/" + w.name + "-" + std::to_string(::getpid());
  stdfs::remove_all(work_dir);
  stdfs::create_directories(work_dir);

  const std::vector<std::vector<size_t>> perms = Permutations(w, args.seed);
  std::unique_ptr<TraceLog> trace;
  if (args.trace == 1) trace = std::make_unique<TraceLog>();
  const double phase_seconds =
      args.trace == 1 ? args.seconds / 2 : args.seconds;

  std::vector<SetupTimes> setups;
  // Set up several times: set-up time is a metric, and one sample of it is
  // too noisy. explore and skim keep the last engine; fleet-stream sets up
  // again for every pass.
  std::unique_ptr<Instance> inst;
  constexpr int kSetups = 21;
  for (int k = 0; k < kSetups; ++k) {
    inst.reset();
    const std::string dir = work_dir + "/setup";
    stdfs::remove_all(dir);
    inst = MakeInstance(w, w.kind == Kind::kFleet ? dir : "", trace.get());
    setups.push_back(inst->setup);
  }
  Progress("set up " + std::to_string(kSetups) + " times");
  Phase untraced, timed;
  After after;
  double peak_rss_mb = 0;  // read when the timed phase ends
  if (w.kind == Kind::kSessions) {
    // Untimed warm-up session.
    for (size_t q : perms[0]) {
      Unwrap(inst->engine()->Execute(w.queries[q]), "warm-up");
    }
    if (trace != nullptr) {
      untraced = RunSessions(w, inst.get(), perms, phase_seconds, nullptr);
      inst->engine()->tracer().Clear();
    }
    timed = RunSessions(w, inst.get(), perms, phase_seconds, trace.get());
    peak_rss_mb = PeakRssMb();
    after = RecoverSessions(w, inst.get(), perms[0], work_dir, trace.get());
  } else {
    inst.reset();
    int pass = 0;
    FleetTail tail;
    if (trace != nullptr) {
      untraced = RunFleet(w, work_dir, &pass, perms, phase_seconds, nullptr,
                          &tail);
    }
    timed = RunFleet(w, work_dir, &pass, perms, phase_seconds, trace.get(),
                     &tail);
    peak_rss_mb = PeakRssMb();
    for (const Phase* p : {&untraced, &timed}) {
      setups.insert(setups.end(), p->setups.begin(), p->setups.end());
    }
    after = RecoverFleet(w, tail, trace.get());
  }

  char line[200];
  std::snprintf(line, sizeof(line),
                "timed phase: %" PRId64 " queries in %.3f s; recovered "
                "%.2f MB in %.2f ms (median of %zu, %.2f..%.2f)",
                timed.queries, timed.wall_s, after.accounted_bytes / 1048576.0,
                Median(after.recover_s) * 1000, after.recover_s.size(),
                Percentile(after.recover_s, 0) * 1000,
                Percentile(after.recover_s, 1) * 1000);
  Progress(line);
  for (const auto& [what, ms] :
       {std::pair{"query", &timed.query_ms}, {"round", &timed.round_ms}}) {
    std::string deciles = std::string(what) + " ms by decile:";
    for (int d = 1; d <= 9; ++d) {
      char v[32];
      std::snprintf(v, sizeof(v), " %.1f", Percentile(*ms, d / 10.0));
      deciles += v;
    }
    Progress(deciles);
  }
  // The oracle runs after every measurement window.
  Oracle oracle;
  oracle.Build(w);
  Progress("oracle built");
  if (args.corrupt_expected) oracle.Corrupt();
  int64_t attempted = untraced.queries + timed.queries +
                      static_cast<int64_t>(after.rerun.size());
  int64_t failed = untraced.failed + timed.failed;
  failed += CountMismatches(oracle, untraced.observed);
  failed += CountMismatches(oracle, timed.observed);
  failed += CountMismatches(oracle, after.rerun);
  stdfs::remove_all(work_dir);
  std::error_code ignored;  // the root stays while another run uses it
  stdfs::remove(work_root, ignored);

  MetricsJson metrics;
  if (trace == nullptr) {
    AddEndToEnd(&metrics, timed, setups, peak_rss_mb);
  } else {
    trace->Finish();
    const std::string out_dir = ".bench_out";
    stdfs::create_directories(out_dir);
    const std::string stem =
        out_dir + "/" + w.name + "-seed" + std::to_string(args.seed);
    std::ofstream(stem + ".trace.json") << trace->RenderChrome();
    const std::string table = trace->RenderLayerTable();
    std::ofstream(stem + ".layers.txt") << table;
    std::printf("%s", table.c_str());
    std::printf("chrome trace: %s.trace.json\n", stem.c_str());
    AddPerLayer(&metrics, w, untraced, timed, after, *trace, setups);
  }
  std::printf("%s\n", metrics.Render(failed == 0, attempted, failed).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }

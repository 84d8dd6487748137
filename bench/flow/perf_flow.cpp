// Flow performance ledger program: one process runs one workload once.
//
//   perf_flow --workload NAME --json OUT [--seed N] [--smoke] [--trace TRACE]
//
// The process sets the workload up (cell library, flow configs, SIMD dispatch,
// die generation) at least kMinSetupReps times and for at least
// kMinSetupSeconds, reports the median set-up time, then times run_flow on every flow of the workload, serially, on the calling
// thread. The atpg-b20 workload also schedules its dies' test sessions on a
// shared TAM after the flows (inside the timed loop).
//
// Without --trace, spans and counters stay off, so the timings are what a
// user of the library sees. With --trace the process records the spans and
// counters src/ already emits, writes them as a Perfetto/Chrome trace to
// TRACE, and reduces them to per-layer self time: a span's duration minus the
// part its direct children on the same thread cover, summed over all thread
// lanes for every span that maps to a layer (layer_of_span).
//
// --seed 0 runs the dies exactly as authored; --seed N XORs
// derive_job_seeds(N, flow index) into the die, placement and ATPG seeds, as
// `wcm3d campaign --seed N` does for its job of the same index (the two ATPG
// workloads keep their authored dies; see make_workload). Thread widths come from the
// workload definition only.
//
// OUT is one JSON document (schema in README.md); run.py aggregates reps.
// Exit codes: 0 = every flow produced a plan covering all TSVs, 1 = some flow
// threw or produced an invalid plan, or an output file could not be written,
// 2 = bad arguments.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "dft/tam.hpp"
#include "gen/generator.hpp"
#include "obs/obs.hpp"
#include "runner/campaign.hpp"
#include "runner/report_json.hpp"
#include "runner/scenario.hpp"
#include "runner/seeds.hpp"
#include "util/rss.hpp"
#include "util/simd.hpp"

namespace {

using namespace wcm;
using Clock = std::chrono::steady_clock;

// Set-up of the small workloads takes well under a millisecond; repeating it
// for a fixed minimum time keeps its median steady.
constexpr int kMinSetupReps = 5;
constexpr double kMinSetupSeconds = 0.5;

#if defined(__clang__)
constexpr const char* kCompiler = __VERSION__;  // "Clang x.y.z ..."
#else
constexpr const char* kCompiler = "GCC " __VERSION__;
#endif

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------- workloads

struct FlowSpec {
  std::string label;
  DieSpec die;
  FlowConfig config;
};

struct Workload {
  std::string name;
  int threads = 1;
  std::vector<FlowSpec> flows;
  /// > 0: after the flows, schedule every die's test session on a stack TAM
  /// of this width (make_tam_profile + schedule_stack).
  int stack_tam_width = 0;
  /// False: --seed reaches only the placement and ATPG seeds.
  bool reseed_dies = true;
};

/// bench/perf_scale's synthetic die at `gates` gates.
DieSpec scale_spec(int gates) {
  DieSpec spec;
  spec.name = "scale" + std::to_string(gates);
  spec.num_gates = gates;
  spec.num_scan_ffs = std::max(4, gates / 200);
  spec.num_inbound = std::max(8, gates / 100);
  spec.num_outbound = std::max(8, gates / 100);
  spec.num_pis = 16;
  spec.num_pos = 16;
  spec.seed = 0x5CA1EULL ^ static_cast<std::uint64_t>(gates);
  return spec;
}

std::vector<DieSpec> dies_of(const std::string& circuit, int count) {
  std::vector<DieSpec> dies;
  for (int d = 0; d < count; ++d) dies.push_back(itc99_die_spec(circuit, d));
  return dies;
}

/// The proposed method's flow exactly as `wcm3d campaign` builds it, with the
/// workload's thread width pinned for the solve and the ATPG sweeps.
void add_flows(Workload& w, const std::vector<DieSpec>& dies, const ScenarioSpec& base,
               const std::vector<bool>& tight_variants) {
  for (const DieSpec& die : dies) {
    for (const bool tight : tight_variants) {
      ScenarioSpec spec = base;
      spec.tight = tight;
      FlowConfig config = make_scenario_config(spec);
      config.wcm.solve_threads = w.threads;
      config.atpg.threads = w.threads;
      std::string label = die.name + "/" + spec.method + "/" + scenario_name(spec);
      if (spec.tam_width > 0) label += "/w" + std::to_string(spec.tam_width);
      w.flows.push_back(FlowSpec{std::move(label), die, std::move(config)});
    }
  }
}

/// Workload definitions (README.md says why each exists). --smoke keeps each
/// workload's shape on one small die.
std::optional<Workload> make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  ScenarioSpec base;
  const std::vector<bool> both{false, true};
  const std::vector<bool> tight_only{true};
  if (name == "paper24") {
    base.oracle = "structural";
    add_flows(w, smoke ? dies_of("b11", 1) : itc99_all_dies(), base,
              smoke ? tight_only : both);
  } else if (name == "measured-b11") {
    // A regenerated b11 die changes the measured oracle's work up to 3x
    // (2.7-7.4 s over seeds 1-10), which would drown any regression in input
    // variance; placement and ATPG seeds alone move it a few percent.
    w.reseed_dies = false;
    w.threads = 4;
    base.oracle = "measured";
    add_flows(w, dies_of("b11", smoke ? 1 : 4), base, smoke ? tight_only : both);
  } else if (name == "scale-1e5") {
    base.oracle = "structural";
    add_flows(w, {scale_spec(smoke ? 10000 : 100000)}, base, smoke ? tight_only : both);
  } else if (name == "atpg-b20") {
    // PODEM effort follows die structure: regenerated dies spread the run
    // by ~8% over seeds on their own, so this workload keeps its dies too.
    w.reseed_dies = false;
    base.oracle = "structural";
    base.with_atpg = true;
    base.tam_width = 8;
    w.stack_tam_width = 8;
    add_flows(w, smoke ? dies_of("b11", 1) : dies_of("b20", 4), base, tight_only);
  } else {
    return std::nullopt;
  }
  return w;
}

void apply_seed(Workload& w, std::uint64_t seed) {
  if (seed == 0) return;  // the dies as authored
  for (std::size_t i = 0; i < w.flows.size(); ++i) {
    const JobSeeds js = derive_job_seeds(seed, i);
    if (w.reseed_dies) w.flows[i].die.seed ^= js.generator;
    w.flows[i].config.place.seed ^= js.place;
    w.flows[i].config.atpg.seed ^= js.atpg;
  }
}

/// One set-up: workload configs (cell library included), SIMD dispatch
/// resolution, and every distinct die generated once.
struct Prepared {
  Workload workload;
  std::vector<Netlist> dies;
  std::vector<std::size_t> die_of_flow;
};

Prepared prepare(const std::string& name, std::uint64_t seed, bool smoke) {
  Prepared p;
  p.workload = *make_workload(name, smoke);
  apply_seed(p.workload, seed);
  (void)simd::active();
  std::map<std::pair<std::string, std::uint64_t>, std::size_t> index;
  for (const FlowSpec& flow : p.workload.flows) {
    const auto key = std::make_pair(flow.die.name, flow.die.seed);
    auto it = index.find(key);
    if (it == index.end()) {
      WCM_OBS_SPAN("gen/generate", flow.die.name);
      it = index.emplace(key, p.dies.size()).first;
      p.dies.push_back(generate_die(flow.die));
    }
    p.die_of_flow.push_back(it->second);
  }
  return p;
}

// ---------------------------------------------------------------- results

struct FlowResult {
  std::string label;
  double seconds = 0.0;
  bool ok = false;
  std::string error;
  std::string signature;
  FlowReport report;
};

/// Per-layer self time. Every span src/ or this program emits maps to one
/// layer; a span missing here counts as unattributed and lowers
/// layer_coverage, so new spans show up as a coverage drop.
const std::map<std::string, std::string>& layer_of_span() {
  static const std::map<std::string, std::string> table{
      {"gen/generate", "gen.generate_s"},
      {"flow/clock_derive", "core.flow.clock_s"},
      {"flow/place", "place.place_s"},
      {"flow/solve", "core.solve.self_s"},
      {"solve/timing_view_sta", "core.solve.self_s"},
      {"solve/direction", "core.solve.self_s"},
      {"solve/compat_graph", "core.solve.self_s"},
      {"solve/repair", "core.solve.self_s"},
      {"solve/oracle_cache_load", "core.solve.self_s"},
      {"solve/oracle_cache_save", "core.solve.self_s"},
      {"graph/cone_prewarm", "netlist.cones_s"},
      {"graph/scan_chunk", "core.graph.scan_s"},
      {"graph/merge_edges", "core.graph.merge_s"},
      {"graph/pipeline_drain", "core.graph.pipeline_wait_s"},
      {"solve/clique_partition", "core.clique_s"},
      {"solve/clique_greedy", "core.clique_s"},
      {"solve/clique_anytime", "core.clique_s"},
      {"oracle/prepare", "core.oracle.self_s"},
      {"oracle/evaluate_batch", "core.oracle.self_s"},
      {"oracle/measured_incremental", "core.oracle.self_s"},
      {"oracle/measured_scratch", "core.oracle.self_s"},
      {"sta/run", "sta.run_s"},
      {"sta/signoff", "sta.run_s"},
      {"sta/incremental_update", "sta.run_s"},
      {"flow/signoff", "core.flow.signoff_s"},
      {"dft/insert", "dft.insert_s"},
      {"dft/insert_wrappers", "dft.insert_s"},
      {"flow/atpg_stuck_at", "core.flow.atpg_view_s"},
      {"flow/atpg_transition", "core.flow.atpg_view_s"},
      {"atpg/collapse", "atpg.collapse_s"},
      {"atpg/warm_replay", "atpg.warm_replay_s"},
      {"atpg/random_phase", "atpg.random_s"},
      {"atpg/podem_phase", "atpg.podem_s"},
      {"atpg/stem_sweep", "atpg.sim_s"},
      {"flow/tam", "dft.tam_s"},
      {"tam/partition", "dft.tam_s"},
      {"tam/schedule", "dft.tam_s"},
      {"bench/stack", "dft.tam_s"},
  };
  return table;
}

struct SpanTimes {
  std::map<std::string, double> self_s;       ///< by span name, all lanes
  std::map<std::string, double> inclusive_s;  ///< by span name, all lanes
};

SpanTimes span_times(const std::vector<obs::ThreadSpans>& lanes) {
  SpanTimes out;
  for (const obs::ThreadSpans& lane : lanes) {
    std::vector<const obs::SpanRecord*> spans;
    for (const obs::SpanRecord& s : lane.spans) spans.push_back(&s);
    // Start order, parents before children that start on the same tick.
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->depth < b->depth;
    });
    std::vector<double> self(spans.size());
    std::vector<std::size_t> open;  // stack of indices; depth strictly increasing
    for (std::size_t k = 0; k < spans.size(); ++k) {
      self[k] = spans[k]->dur_us;
      while (!open.empty() && spans[open.back()]->depth >= spans[k]->depth) open.pop_back();
      if (!open.empty()) self[open.back()] -= spans[k]->dur_us;
      open.push_back(k);
    }
    for (std::size_t k = 0; k < spans.size(); ++k) {
      out.self_s[spans[k]->name] += self[k] * 1e-6;
      out.inclusive_s[spans[k]->name] += spans[k]->dur_us * 1e-6;
    }
  }
  return out;
}

std::uint64_t counter(const std::string& name) {
  return obs::MetricsRegistry::instance().value(name);
}

/// JSON object writer for flat {"key": number} maps.
std::string json_numbers(const std::map<std::string, double>& values) {
  std::ostringstream out;
  out.precision(17);
  out << '{';
  bool first = true;
  for (const auto& [key, value] : values) {
    out << (first ? "" : ",") << '"' << json_escape(key) << "\":" << value;
    first = false;
  }
  out << '}';
  return out.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: perf_flow --workload paper24|measured-b11|scale-1e5|atpg-b20 "
               "--json OUT [--seed N] [--smoke] [--trace TRACE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name, json_path, trace_path;
  std::uint64_t seed = 0;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else if (arg == "--trace" && has_value) {
      trace_path = argv[++i];
    } else if (arg == "--seed" && has_value) {
      const char* text = argv[++i];
      char* end = nullptr;
      errno = 0;
      seed = std::strtoull(text, &end, 10);
      if (*text == '\0' || *text == '-' || *end != '\0' || errno == ERANGE) return usage();
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return usage();
    }
  }
  if (json_path.empty() || !make_workload(workload_name, smoke)) return usage();

  const bool traced = !trace_path.empty();
  obs::set_metrics_enabled(traced);
  obs::set_trace_enabled(traced);

  // ---- set-up, repeatedly; the last one is kept ----
  std::vector<double> setup_samples;
  Prepared prepared;
  const auto setup_start = Clock::now();
  while (setup_samples.size() < kMinSetupReps ||
         seconds_since(setup_start) < kMinSetupSeconds) {
    prepared = Prepared{};  // free the previous dies before generating again
    const auto t0 = Clock::now();
    prepared = prepare(workload_name, seed, smoke);
    setup_samples.push_back(seconds_since(t0));
  }
  const Workload& workload = prepared.workload;

  // ---- the timed loop ----
  std::vector<FlowResult> results;
  std::optional<TamSchedule> schedule;
  const auto wall_start = Clock::now();
  for (std::size_t i = 0; i < workload.flows.size(); ++i) {
    const FlowSpec& flow = workload.flows[i];
    const Netlist& die = prepared.dies[prepared.die_of_flow[i]];
    FlowResult r;
    r.label = flow.label;
    const auto t0 = Clock::now();
    try {
      WCM_OBS_SPAN("bench/flow", flow.label);
      r.report = run_flow(die, flow.config);
      r.ok = r.report.solution.plan.covers_all_tsvs(die);
      if (!r.ok) r.error = "plan does not cover every TSV";
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    r.seconds = seconds_since(t0);
    if (r.ok) r.signature = flow_report_signature(r.report);
    results.push_back(std::move(r));
  }
  const bool all_ok =
      std::all_of(results.begin(), results.end(), [](const FlowResult& r) { return r.ok; });
  if (workload.stack_tam_width > 0 && all_ok) {
    WCM_OBS_SPAN("bench/stack");
    std::vector<DieTamProfile> profiles;
    for (std::size_t i = 0; i < results.size(); ++i)
      profiles.push_back(make_tam_profile(prepared.dies[prepared.die_of_flow[i]],
                                          results[i].report.solution.plan,
                                          results[i].report.stuck_at.patterns,
                                          workload.stack_tam_width));
    schedule = schedule_stack(profiles, workload.stack_tam_width);
  }
  const double wall_s = seconds_since(wall_start);

  // ---- quality and counts: deterministic, from the reports ----
  std::map<std::string, double> quality{{"wrapper_cells", 0},   {"reused_ffs", 0},
                                        {"violating_flows", 0}, {"eco_demotions", 0},
                                        {"atpg_patterns", 0},   {"test_cycles", 0}};
  std::map<std::string, double> counts{{"core.graph.nodes", 0},
                                       {"core.graph.edges", 0},
                                       {"core.graph.overlap_edges", 0},
                                       {"core.clique.count", 0}};
  double sa_coverage_min = 1.0, faults = 0.0, aborted = 0.0;
  bool any_atpg = false;
  std::string digest_input;
  for (const FlowResult& r : results) {
    digest_input += r.signature;
    digest_input += '\n';
    if (!r.ok) continue;
    const FlowReport& rep = r.report;
    quality["wrapper_cells"] += rep.solution.additional_cells;
    quality["reused_ffs"] += rep.solution.reused_ffs;
    quality["violating_flows"] += rep.timing_violation ? 1 : 0;
    quality["eco_demotions"] += rep.repair_demotions;
    quality["atpg_patterns"] += rep.stuck_at.patterns + rep.transition.patterns;
    for (const PhaseStats& p : rep.solution.phases) {
      counts["core.graph.nodes"] += p.graph_nodes;
      counts["core.graph.edges"] += p.graph_edges;
      counts["core.graph.overlap_edges"] += p.overlap_edges;
      counts["core.clique.count"] += p.cliques;
    }
    if (rep.stuck_at.total_faults > 0) {
      any_atpg = true;
      sa_coverage_min = std::min(sa_coverage_min, rep.stuck_at.test_coverage());
    }
    faults += rep.stuck_at.total_faults + rep.transition.total_faults;
    aborted += rep.stuck_at.aborted + rep.transition.aborted;
  }
  quality["sa_test_coverage_min"] = any_atpg ? sa_coverage_min : 0.0;
  if (schedule) quality["test_cycles"] = static_cast<double>(schedule->makespan_cycles);
  counts["atpg.aborted_ratio"] = faults > 0 ? aborted / faults : 0.0;

  // ---- per-layer self time (traced runs only) ----
  std::map<std::string, double> layers;
  if (traced) {
    obs::set_trace_enabled(false);
    if (!obs::write_chrome_trace(trace_path)) {
      std::fprintf(stderr, "perf_flow: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    const SpanTimes times = span_times(obs::trace_snapshot());
    for (const auto& [span, layer] : layer_of_span()) layers[layer] += 0.0;
    double named = 0.0, unnamed = 0.0;
    for (const auto& [span, self] : times.self_s) {
      const auto it = layer_of_span().find(span);
      if (it == layer_of_span().end()) {
        unnamed += self;
        continue;
      }
      layers[it->second] += self;
      named += self;
    }
    layers["gen.generate_s"] /= static_cast<double>(setup_samples.size());
    const auto inclusive = [&times](const char* span) {
      const auto it = times.inclusive_s.find(span);
      return it == times.inclusive_s.end() ? 0.0 : it->second;
    };
    layers["core.oracle.prepare_s"] = inclusive("oracle/prepare");
    layers["core.oracle.eval_s"] =
        inclusive("oracle/measured_incremental") + inclusive("oracle/measured_scratch");
    layers["layer_coverage"] = named + unnamed > 0 ? named / (named + unnamed) : 0.0;

    const double hits = static_cast<double>(counter("oracle.cache_hit"));
    const double misses = static_cast<double>(counter("oracle.cache_miss"));
    layers["core.oracle.queries"] =
        static_cast<double>(counter("oracle.structural_evals") +
                            counter("oracle.incremental_evals") +
                            counter("oracle.scratch_evals"));
    layers["core.oracle.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    layers["core.graph.pipeline_helped"] =
        static_cast<double>(counter("graph.pipeline_helped"));
    layers["atpg.faults_swept"] = static_cast<double>(counter("atpg.faults_swept"));
    layers["atpg.sweep_rate"] = layers["atpg.sim_s"] > 0
                                    ? layers["atpg.faults_swept"] / layers["atpg.sim_s"]
                                    : 0.0;
    layers["spans_dropped"] = static_cast<double>(obs::spans_dropped());
  }

  // ---- the run document ----
  std::ostringstream out;
  out.precision(17);
  out << "{\"workload\":\"" << json_escape(workload.name) << "\",\"seed\":" << seed
      << ",\"smoke\":" << (smoke ? "true" : "false")
      << ",\"traced\":" << (traced ? "true" : "false") << ",\"threads\":" << workload.threads
      << ",\"simd\":\"" << simd::isa_name(simd::active()) << "\",\"compiler\":\""
      << json_escape(kCompiler) << "\",\"setup_s\":" << median(setup_samples)
      << ",\"wall_s\":" << wall_s
      << ",\"peak_rss_mb\":" << static_cast<double>(peak_rss_bytes()) / (1024.0 * 1024.0)
      << ",\"plan_digest\":\"" << hex64(fnv1a(digest_input)) << "\",\"flows\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FlowResult& r = results[i];
    out << (i ? "," : "") << "{\"label\":\"" << json_escape(r.label)
        << "\",\"seconds\":" << r.seconds << ",\"ok\":" << (r.ok ? "true" : "false")
        << ",\"signature\":\"" << hex64(fnv1a(r.signature)) << "\",\"error\":\""
        << json_escape(r.error) << "\"}";
  }
  out << "],\"quality\":" << json_numbers(quality) << ",\"counts\":" << json_numbers(counts)
      << ",\"layers\":" << json_numbers(layers) << "}\n";

  std::ofstream file(json_path, std::ios::trunc);
  file << out.str();
  if (!file) {
    std::fprintf(stderr, "perf_flow: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return all_ok ? 0 : 1;
}

/**
 * @file
 * Host-time benchmark driver: runs one workload in a closed loop (one
 * run at a time, on one thread) and measures how long the simulator
 * itself takes. Every run's simulated outputs are checked against a
 * pinned digest, because a change that only speeds the simulator up
 * must leave every modeled statistic bit-identical.
 *
 *   hostbench --workload W --seed N --seconds S --trace 0|1
 *             [--spawn-ns T] [--setup-only] [--perturb-digest]
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 runs each round
 * untraced and then through the public layer functions one call at a
 * time with a timer around each, and prints the per-layer metrics.
 * Run it from the repository root through run.py, which builds it and
 * adds setup_s. README.md documents the workloads, metrics and layers.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/arch/catalog.h"
#include "src/cluster/routing.h"
#include "src/cluster/scenario_run.h"
#include "src/common/rng.h"
#include "src/fleet/deployment.h"
#include "src/llm/llm_scenario.h"
#include "src/obs/alerts.h"
#include "src/obs/sampling.h"
#include "src/obs/slo.h"
#include "src/obs/spans.h"
#include "src/obs/timeseries.h"
#include "src/tensor/executor.h"

namespace t4i {
namespace {

using Clock = std::chrono::steady_clock;

double
Since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Duration of an empty timed interval: what a layer that has no work
 *  on a workload's path reads. */
double
EmptySpan()
{
    const Clock::time_point start = Clock::now();
    return Since(start);
}

double
Median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    if (n == 0) return 0.0;
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** FNV-1a 64 of @p text as 16 hex digits. */
std::string
Digest(const std::string& text)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Per-layer host times (seconds) and counts, keyed by metric name. */
using Layers = std::map<std::string, double>;

/** What one run of a workload produced. */
struct RunOutput {
    /** Every simulated output, canonically serialized: the report
     *  JSON plus the books and verdicts the report does not carry. */
    std::string sim_text;
    /** Simulated requests (PrecisionLoss calls on quant_fidelity). */
    int64_t requests = 0;
    /** Request and token conservation held. */
    bool books_closed = false;
    /** The workload's own contract held (ScenarioPassed; finite SQNR). */
    bool passed = false;
    /** Modeled headline numbers, for the log only. */
    std::string sim_summary;
    /** Wall seconds of each separately timed part of the run, in a
     *  fixed order; empty when the run is timed as a whole. */
    std::vector<double> part_s;
};

class Workload {
  public:
    virtual ~Workload() = default;
    /** Reads and builds everything a run needs; @p layers (nullable)
     *  receives the set-up layer times. */
    virtual Status Setup(uint64_t seed, Layers* layers) = 0;
    /** One run through the public entry point, tracing off. */
    virtual StatusOr<RunOutput> Run() = 0;
    /** The same run, one layer call at a time with a timer around
     *  each; must produce the same RunOutput as Run(). */
    virtual StatusOr<RunOutput> RunTraced(Layers* layers) = 0;
    /** Layer times taken after RunTraced(), outside its host time. */
    virtual Status TimeAfterTrace(Layers* layers)
    {
        (void)layers;
        return Status::Ok();
    }
    /** In-loop sinks that can be detached ("timeseries", "spans"). */
    virtual std::vector<std::string> DetachableSinks() const { return {}; }
    /** Runs the layer loop with @p sink detached and returns the
     *  loop's seconds (the by-difference cost of that sink). */
    virtual StatusOr<double> RunLoopWithout(const std::string& sink)
    {
        return Status::Unimplemented("cannot detach " + sink);
    }
};

// ---------------------------------------------------------------------
// Forwarding decorators: time and count every call into a layer.
// ---------------------------------------------------------------------

/** Median duration of an empty timed interval: the part of a timer's
 *  own cost that lands inside what it measures. */
double
TimerFloor()
{
    static const double floor = [] {
        std::vector<double> samples(1001);
        for (double& s : samples) s = EmptySpan();
        return Median(samples);
    }();
    return floor;
}

/** Every call a run made into its arrival source, in order. */
struct SourceCallLog {
    enum class Op : uint8_t { kPeek, kTake, kEnd, kExhausted };
    struct End {
        uint64_t id;
        double end_s;
        bool success;
    };
    std::vector<Op> ops;
    std::vector<End> ends;  ///< OnRequestEnd arguments
    int64_t takes = 0;
};

/**
 * Forwards every call to the wrapped source and logs it. A source call
 * takes tens of nanoseconds and a run makes millions, so a timer around
 * each would cost more than the calls; ReplaySourceCalls() repeats the
 * logged sequence on a fresh source under one timer instead.
 */
class RecordingArrivalSource : public load::ArrivalSource {
  public:
    RecordingArrivalSource(load::ArrivalSource* inner, SourceCallLog* log)
        : inner_(inner), log_(log)
    {
    }

    bool
    Peek(load::LoadArrival* out) override
    {
        log_->ops.push_back(SourceCallLog::Op::kPeek);
        return inner_->Peek(out);
    }

    load::LoadArrival
    Take() override
    {
        log_->ops.push_back(SourceCallLog::Op::kTake);
        ++log_->takes;
        return inner_->Take();
    }

    void
    OnRequestEnd(uint64_t id, double end_s, bool success) override
    {
        log_->ops.push_back(SourceCallLog::Op::kEnd);
        log_->ends.push_back({id, end_s, success});
        inner_->OnRequestEnd(id, end_s, success);
    }

    bool
    Exhausted() const override
    {
        log_->ops.push_back(SourceCallLog::Op::kExhausted);
        return inner_->Exhausted();
    }

  private:
    load::ArrivalSource* inner_;
    SourceCallLog* log_;
};

/** Seconds @p fresh (built like the logged source) takes to answer the
 *  logged calls. */
double
ReplaySourceCalls(const SourceCallLog& log, load::ArrivalSource* fresh)
{
    using Op = SourceCallLog::Op;
    load::LoadArrival arrival;
    size_t end = 0;
    const Clock::time_point start = Clock::now();
    for (Op op : log.ops) {
        switch (op) {
          case Op::kPeek: fresh->Peek(&arrival); break;
          case Op::kTake: arrival = fresh->Take(); break;
          case Op::kEnd: {
            const SourceCallLog::End& e = log.ends[end++];
            fresh->OnRequestEnd(e.id, e.end_s, e.success);
            break;
          }
          case Op::kExhausted: fresh->Exhausted(); break;
        }
    }
    return Since(start);
}

/** Forwards to the compiled cost model, timing and counting each call
 *  (tens of thousands per run, so per-call timers are affordable; each
 *  is charged net of TimerFloor()). */
class TimedCostModel : public llm::LlmCostModel {
  public:
    explicit TimedCostModel(llm::CompiledLlmCostModel* inner)
        : inner_(inner), floor_(TimerFloor())
    {
    }

    double
    PrefillSeconds(int64_t prompt_tokens) override
    {
        const Clock::time_point start = Clock::now();
        const int64_t sims = inner_->simulations();
        const double cost = inner_->PrefillSeconds(prompt_tokens);
        Charge(start, sims);
        return cost;
    }

    double
    DecodeStepSeconds(int64_t batch, int64_t avg_ctx,
                      double kv_cmem_fraction) override
    {
        const Clock::time_point start = Clock::now();
        const int64_t sims = inner_->simulations();
        const double cost =
            inner_->DecodeStepSeconds(batch, avg_ctx, kv_cmem_fraction);
        Charge(start, sims);
        return cost;
    }

    int64_t calls = 0;
    int64_t misses = 0;
    double seconds = 0.0;
    double miss_seconds = 0.0;

  private:
    void
    Charge(Clock::time_point start, int64_t sims_before)
    {
        const double s = Since(start) - floor_;
        ++calls;
        seconds += s;
        if (inner_->simulations() != sims_before) {
            ++misses;
            miss_seconds += s;
        }
    }

    llm::CompiledLlmCostModel* inner_;
    double floor_;
};

// ---------------------------------------------------------------------
// Scenario workloads (crowd_forensics, llm_flood)
// ---------------------------------------------------------------------

/** RunScenario's default tenant (an affine device model); the runner
 *  keeps it private, so the traced replica restates it. */
TenantConfig
DefaultTenant(const load::ScenarioTenant& st)
{
    TenantConfig t;
    t.name = st.name;
    t.latency_s = [](int64_t batch) {
        return 1e-3 + 1e-4 * static_cast<double>(batch);
    };
    t.max_batch = 32;
    t.slo_s = 0.010;
    return t;
}

double
CellCapacityRps(const TenantConfig& t, int devices)
{
    int64_t best = 1;
    for (int64_t b = 1; b <= t.max_batch; b *= 2) {
        if (t.latency_s(b) <= t.slo_s) best = b;
    }
    const double latency = t.latency_s(best);
    if (latency <= 0.0) return 0.0;
    return static_cast<double>(best) / latency *
           static_cast<double>(std::max(devices, 1));
}

/** Tenants resolved the way RunScenario resolves them. */
struct ResolvedTenants {
    std::vector<TenantConfig> configs;
    std::vector<double> rates;
    std::vector<std::string> names;
};

ResolvedTenants
ResolveTenants(const load::Scenario& scenario)
{
    ResolvedTenants out;
    for (const load::ScenarioTenant& st : scenario.tenants) {
        TenantConfig t = DefaultTenant(st);
        const double rate =
            st.rate > 0.0
                ? st.rate
                : st.load *
                      CellCapacityRps(t, scenario.devices_per_cell);
        t.arrival_rate = rate;
        t.deadline_s = st.deadline_s;
        if (st.max_queue > 0) t.max_queue = st.max_queue;
        t.priority = st.priority;
        out.configs.push_back(std::move(t));
        out.rates.push_back(rate);
        out.names.push_back(st.name);
    }
    return out;
}

/** The alert, time-series and SLO sinks both scenario runners build. */
struct ObsSinks {
    obs::AlertEngine alerts;
    std::unique_ptr<obs::TimeSeriesCollector> collector;
    obs::SloTracker slo;
    obs::SpanCollector spans;

    /** Binds in the runners' order, since the report lists metrics in
     *  registration order. */
    static StatusOr<std::unique_ptr<ObsSinks>>
    Build(const load::Scenario& scenario, obs::MetricsRegistry* reg)
    {
        auto sinks = std::make_unique<ObsSinks>();
        sinks->alerts.BindRegistry(reg);
        if (!scenario.alert_rules_text.empty()) {
            T4I_RETURN_IF_ERROR(
                sinks->alerts.AddRulesFromText(scenario.alert_rules_text));
        }
        obs::TimeSeriesOptions ts_options;
        ts_options.window_s = scenario.window_s;
        sinks->collector =
            std::make_unique<obs::TimeSeriesCollector>(ts_options);
        sinks->collector->BindRegistry(reg);
        if (sinks->alerts.rule_count() > 0) {
            sinks->collector->BindAlerts(&sinks->alerts);
        }
        sinks->slo.BindRegistry(reg);
        if (!scenario.slo_objectives_text.empty()) {
            T4I_RETURN_IF_ERROR(sinks->slo.AddObjectivesFromText(
                scenario.slo_objectives_text));
        }
        sinks->spans.BindRegistry(reg);
        return sinks;
    }
};

/** The books and verdicts a run report does not carry. */
std::string
OutcomeText(const ScenarioOutcome& outcome)
{
    const ClusterResult& r = outcome.cluster;
    std::ostringstream os;
    os << "books " << r.arrived << ' ' << r.completed << ' '
       << r.dropped << ' ' << r.shed << ' ' << r.router_shed << ' '
       << r.failovers << ' ' << outcome.client_retries << '\n'
       << "verdicts " << outcome.alerts_pass << ' '
       << outcome.conservation_ok << ' ' << outcome.dominant_pass
       << " dominant=" << outcome.dominant_actual << " fired=";
    for (const std::string& name : outcome.fired) os << name << ',';
    os << '\n';
    return os.str();
}

std::string
LlmText(const llm::LlmResult& r)
{
    std::ostringstream os;
    os << "llm " << r.tokens_in << ' ' << r.tokens_out << ' '
       << r.iterations << ' ' << r.preemptions << ' '
       << r.recompute_tokens << ' ' << r.kv_peak_tokens << '\n';
    return os.str();
}

/** Exact-set alert grading, as both scenario runners do it. */
void
GradeAlerts(const obs::AlertEngine& alerts,
            const load::Scenario& scenario, ScenarioOutcome* outcome)
{
    for (const obs::AlertStatus& status : alerts.statuses()) {
        if (status.state == obs::AlertState::kFiring) {
            outcome->fired.push_back(status.rule.name);
        }
    }
    outcome->alerts_pass =
        std::set<std::string>(outcome->fired.begin(),
                              outcome->fired.end()) ==
        std::set<std::string>(scenario.expect.begin(),
                              scenario.expect.end());
}

/** A scenario file run with tail forensics and the report on, as
 *  `t4sim_cli check --scenario` runs it. */
class ScenarioWorkload : public Workload {
  public:
    explicit ScenarioWorkload(std::string path) : path_(std::move(path)) {}

    Status
    Setup(uint64_t seed, Layers* layers) override
    {
        seed_ = seed;
        const Clock::time_point start = Clock::now();
        auto parsed = load::ParseScenarioFile(path_);
        T4I_RETURN_IF_ERROR(parsed.status());
        if (layers != nullptr) (*layers)["load.parse_s"] = Since(start);
        scenario_ = std::move(parsed).ConsumeValue();
        return Status::Ok();
    }

    StatusOr<RunOutput>
    Run() override
    {
        obs::MetricsRegistry reg;
        ScenarioRunOptions options;
        options.registry = &reg;
        options.override_seed = true;
        options.seed = seed_;
        RunOutput out;
        if (scenario_.llm.enabled) {
            auto run = llm::RunLlmScenario(scenario_, options);
            T4I_RETURN_IF_ERROR(run.status());
            Finish(run.value().outcome, &run.value().llm, &out);
        } else {
            auto run = RunScenario(scenario_, options);
            T4I_RETURN_IF_ERROR(run.status());
            Finish(run.value(), nullptr, &out);
        }
        return out;
    }

    StatusOr<RunOutput>
    RunTraced(Layers* layers) override
    {
        RunOutput out;
        source_log_ = SourceCallLog();
        T4I_RETURN_IF_ERROR(Pipeline({}, &source_log_, layers, &out));
        return out;
    }

    /** load.source_s: the traced run's arrival-source calls, replayed
     *  on a fresh source. */
    Status
    TimeAfterTrace(Layers* layers) override
    {
        auto fresh = BuildSource();
        T4I_RETURN_IF_ERROR(fresh.status());
        (*layers)["load.source_s"] +=
            ReplaySourceCalls(source_log_, fresh.value().get());
        return Status::Ok();
    }

    StatusOr<double>
    RunLoopWithout(const std::string& sink) override
    {
        Layers layers;
        SourceCallLog log;
        T4I_RETURN_IF_ERROR(Pipeline(sink, &log, &layers, nullptr));
        return layers[scenario_.llm.enabled ? "llm.run_s"
                                            : "cluster.run_s"];
    }

    std::vector<std::string>
    DetachableSinks() const override
    {
        return {"timeseries", "spans"};
    }

  private:
    void
    Finish(const ScenarioOutcome& outcome, const llm::LlmResult* llm,
           RunOutput* out) const
    {
        out->sim_text = obs::RunReportToJson(outcome.report) + "\n" +
                        OutcomeText(outcome) +
                        (llm != nullptr ? LlmText(*llm) : "");
        out->requests = outcome.cluster.arrived;
        out->books_closed = outcome.conservation_ok;
        out->passed = ScenarioPassed(outcome);
        char summary[256];
        if (llm != nullptr) {
            std::snprintf(summary, sizeof(summary),
                          "sim: %lld requests, %lld tokens out, "
                          "availability %.6f, ttft p95 %.4f ms",
                          static_cast<long long>(llm->arrived),
                          static_cast<long long>(llm->tokens_out),
                          outcome.cluster.availability,
                          llm->ttft_p95_s * 1e3);
        } else {
            double p99 = 0.0;
            for (const ClusterTenantStats& t : outcome.cluster.tenants) {
                p99 = std::max(p99, t.p99_latency_s);
            }
            std::snprintf(summary, sizeof(summary),
                          "sim: %lld requests, availability %.6f, "
                          "p99 latency %.4f ms",
                          static_cast<long long>(outcome.cluster.arrived),
                          outcome.cluster.availability, p99 * 1e3);
        }
        out->sim_summary = summary;
    }

    /**
     * RunScenario / RunLlmScenario, one public call at a time. With
     * @p out null it stops after the serving loop (a by-difference
     * variant with the @p detach sink unbound).
     */
    Status
    Pipeline(const std::string& detach, SourceCallLog* source_log,
             Layers* layers, RunOutput* out)
    {
        Layers& L = *layers;
        const bool is_llm = scenario_.llm.enabled;
        obs::MetricsRegistry reg;
        const ResolvedTenants tenants = ResolveTenants(scenario_);

        Clock::time_point start = Clock::now();
        auto source_or = BuildSource();
        T4I_RETURN_IF_ERROR(source_or.status());
        L["load.build_source_s"] += Since(start);
        RecordingArrivalSource source(source_or.value().get(), source_log);

        auto sinks_or = ObsSinks::Build(scenario_, &reg);
        T4I_RETURN_IF_ERROR(sinks_or.status());
        ObsSinks& sinks = *sinks_or.value();
        obs::TimeSeriesCollector* collector =
            detach == "timeseries" ? nullptr : sinks.collector.get();
        obs::SpanCollector* spans =
            detach == "spans" ? nullptr : &sinks.spans;

        ScenarioOutcome outcome;
        llm::LlmResult llm_result;
        double loop_s = 0.0;
        std::unique_ptr<llm::CompiledLlmCostModel> compiled;
        std::unique_ptr<TimedCostModel> cost;
        if (is_llm) {
            auto cell = LlmConfig();
            T4I_RETURN_IF_ERROR(cell.status());
            llm::LlmCellConfig config = std::move(cell).ConsumeValue();
            compiled = std::make_unique<llm::CompiledLlmCostModel>(
                config.model, config.chip);
            cost = std::make_unique<TimedCostModel>(compiled.get());
            config.cost_model = cost.get();
            config.arrival_source = &source;
            config.registry = &reg;
            config.timeseries = collector;
            config.spans = spans;
            start = Clock::now();
            auto result = llm::RunLlmCell(config);
            loop_s = Since(start);
            T4I_RETURN_IF_ERROR(result.status());
            llm_result = std::move(result).ConsumeValue();
            L["llm.run_s"] += loop_s;
            L["llm.iterations"] += static_cast<double>(llm_result.iterations);
            L["llm.cost_calls"] += static_cast<double>(cost->calls);
            L["llm.cost_misses"] += static_cast<double>(cost->misses);
            L["llm.cost_s"] += cost->seconds;
            L["llm.cost_miss_s"] += cost->miss_seconds;
        } else {
            auto policy = ParseRoutingPolicy(scenario_.policy);
            T4I_RETURN_IF_ERROR(policy.status());
            ClusterConfig config;
            config.tenants = tenants.configs;
            config.num_cells = scenario_.cells;
            config.devices_per_cell = scenario_.devices_per_cell;
            config.duration_s = scenario_.duration_s;
            config.seed = seed_;
            config.policy = policy.value();
            config.control_interval_s = scenario_.control_interval_s;
            config.health_check_interval_s = scenario_.health_interval_s;
            config.slo_error_budget = scenario_.error_budget;
            config.arrival_source = &source;
            if (!scenario_.outages.empty()) {
                config.cell_faults.resize(
                    static_cast<size_t>(scenario_.cells));
                for (const load::ScenarioOutage& o : scenario_.outages) {
                    config.cell_faults[static_cast<size_t>(o.cell)] =
                        CellOutagePlan(scenario_.devices_per_cell,
                                       o.fail_at_s, o.repair_at_s);
                }
            }
            config.registry = &reg;
            config.timeseries = collector;
            config.slo = &sinks.slo;
            if (sinks.alerts.rule_count() > 0) {
                config.alerts = &sinks.alerts;
            }
            config.spans = spans;
            if (spans != nullptr) {
                config.max_traced_requests =
                    std::numeric_limits<int64_t>::max();
            }
            start = Clock::now();
            auto result = RunCluster(config);
            loop_s = Since(start);
            T4I_RETURN_IF_ERROR(result.status());
            outcome.cluster = std::move(result).ConsumeValue();
            outcome.policy = RoutingPolicyName(config.policy);
            L["cluster.run_s"] += loop_s;
            L["cluster.client_retries"] +=
                static_cast<double>(outcome.cluster.client_retries);
            L["cluster.failovers"] +=
                static_cast<double>(outcome.cluster.failovers);
        }
        L["load.takes"] += static_cast<double>(source_log->takes);
        L["load.feedback"] += static_cast<double>(source_log->ends.size());
        if (out == nullptr) return Status::Ok();
        if (spans != nullptr) {
            L["obs.spans"] += static_cast<double>(spans->spans().size());
        }

        // --- sinks close; books --------------------------------------
        const double duration_s =
            is_llm ? llm_result.duration_s : outcome.cluster.duration_s;
        start = Clock::now();
        sinks.slo.Finish(duration_s);
        sinks.collector->Finish(duration_s);
        const bool window_books = sinks.collector->CheckConservation().ok();
        L["obs.finish_s"] += Since(start);
        if (is_llm) {
            outcome.policy = llm::LlmModeName(
                llm::ParseLlmMode(scenario_.llm.mode).value());
            ClusterResult& r = outcome.cluster;
            r.arrived = llm_result.arrived;
            r.completed = llm_result.completed;
            r.dropped = llm_result.dropped;
            r.shed = llm_result.shed;
            r.duration_s = llm_result.duration_s;
            r.availability =
                llm_result.arrived > 0
                    ? static_cast<double>(llm_result.completed) /
                          static_cast<double>(llm_result.arrived)
                    : 1.0;
            outcome.conservation_ok =
                llm_result.conservation_ok && window_books;
        } else {
            const ClusterResult& r = outcome.cluster;
            outcome.conservation_ok =
                r.arrived == r.completed + r.dropped + r.shed &&
                window_books;
            outcome.client_retries = r.client_retries;
        }
        GradeAlerts(sinks.alerts, scenario_, &outcome);

        // --- tail forensics ------------------------------------------
        if (spans != nullptr) {
            start = Clock::now();
            obs::TailSamplerOptions sampler_options;
            sampler_options.seed = seed_;
            obs::TailSampler sampler(sampler_options);
            for (const obs::AlertStatus& status : sinks.alerts.statuses()) {
                if (status.fire_count > 0) {
                    sampler.AddAlertWindow(status.fired_at_s, duration_s);
                }
            }
            sampler.Classify(*spans);
            L["obs.sampling.classify_s"] += Since(start);
            L["obs.sampling.traces"] += static_cast<double>(sampler.seen());
            start = Clock::now();
            outcome.forensics =
                obs::BuildForensics(*spans, sampler, &reg, &reg);
            L["obs.critical_path_s"] += Since(start);
            L["obs.sampling.kept"] += static_cast<double>(sampler.kept());
            L["obs.critical_path.paths"] +=
                static_cast<double>(outcome.forensics.paths.size());
            for (const auto& [tenant, component] :
                 outcome.forensics.critical_path.dominant) {
                if (tenant == scenario_.expect_dominant_tenant) {
                    outcome.dominant_actual = component;
                    break;
                }
            }
            if (!scenario_.expect_dominant.empty()) {
                outcome.dominant_pass =
                    outcome.dominant_actual == scenario_.expect_dominant;
            }
        }

        // --- report --------------------------------------------------
        start = Clock::now();
        obs::ReportMeta meta;
        meta.command = "check-scenario";
        meta.app = scenario_.name;
        meta.duration_s = duration_s;
        meta.seed = static_cast<int64_t>(seed_);
        meta.window_s = sinks.collector->window_s();
        outcome.report = obs::BuildRunReport(
            meta, &reg, sinks.collector.get(), &sinks.slo,
            sinks.alerts.rule_count() > 0 ? &sinks.alerts : nullptr);
        obs::AttachForensics(outcome.forensics, &outcome.report);
        L["obs.report.build_s"] += Since(start);
        start = Clock::now();
        std::string json = obs::RunReportToJson(outcome.report);
        L["obs.report.json_s"] += Since(start);
        L["obs.report.bytes"] += static_cast<double>(json.size());

        Finish(outcome, is_llm ? &llm_result : nullptr, out);
        return Status::Ok();
    }

    /** The arrival source both runners build for this seed. */
    StatusOr<std::unique_ptr<load::ArrivalSource>>
    BuildSource() const
    {
        load::Scenario seeded = scenario_;
        seeded.seed = seed_;
        ResolvedTenants tenants = ResolveTenants(scenario_);
        if (scenario_.llm.enabled) {
            // The LLM runner passes tenant rates through unresolved.
            for (size_t i = 0; i < scenario_.tenants.size(); ++i) {
                tenants.rates[i] = scenario_.tenants[i].rate;
            }
        }
        return load::BuildArrivalSource(seeded, tenants.rates,
                                        tenants.names);
    }

    /** RunLlmScenario's cell configuration, without sinks. */
    StatusOr<llm::LlmCellConfig>
    LlmConfig() const
    {
        const load::LlmProgram& prog = scenario_.llm;
        auto model = llm::LlmModelByName(prog.model);
        T4I_RETURN_IF_ERROR(model.status());
        auto mode = llm::ParseLlmMode(prog.mode);
        T4I_RETURN_IF_ERROR(mode.status());
        llm::LlmCellConfig config;
        config.model = model.value();
        config.chip = Tpu_v4i();
        config.mode = mode.value();
        config.max_batch = prog.max_batch;
        config.max_queue = prog.max_queue;
        config.duration_s = scenario_.duration_s;
        config.seed = seed_;
        for (size_t i = 0; i < scenario_.tenants.size(); ++i) {
            const load::ScenarioTenant& st = scenario_.tenants[i];
            const load::LlmTenantProgram tp =
                i < prog.tenants.size() ? prog.tenants[i]
                                        : load::LlmTenantProgram{};
            llm::LlmTenant t;
            t.name = st.name;
            t.rate = st.rate;
            t.deadline_s = st.deadline_s;
            t.prompt.mean = tp.prompt_mean;
            t.prompt.sigma = tp.prompt_sigma;
            t.prompt.max = static_cast<int64_t>(tp.prompt_max);
            t.output.mean = tp.output_mean;
            t.output.sigma = tp.output_sigma;
            t.output.max = static_cast<int64_t>(tp.output_max);
            t.ttft_slo_s = prog.ttft_slo_s;
            t.tpot_slo_s = prog.tpot_slo_s;
            t.shared_prefix_frac = tp.shared_prefix_frac;
            t.shared_prefix_len =
                static_cast<int64_t>(tp.shared_prefix_len);
            config.tenants.push_back(t);
        }
        for (const load::LlmContextFlood& f : prog.floods) {
            config.floods.push_back({f.at_s, f.dur_s, f.mult, f.tenant});
        }
        constexpr double kMiB = 1024.0 * 1024.0;
        if (prog.kv_cmem_mb >= 0.0) {
            config.kv_cmem_budget_bytes =
                static_cast<int64_t>(prog.kv_cmem_mb * kMiB);
        }
        if (prog.kv_hbm_mb >= 0.0) {
            config.kv_hbm_budget_bytes =
                static_cast<int64_t>(prog.kv_hbm_mb * kMiB);
        }
        return config;
    }

    std::string path_;
    uint64_t seed_ = 0;
    load::Scenario scenario_;
    /** The last traced run's arrival-source calls. */
    SourceCallLog source_log_;
};

// ---------------------------------------------------------------------
// quant_fidelity: PrecisionLoss on the four domain proxies
// ---------------------------------------------------------------------

/** Batch of every PrecisionLoss call: the smallest, because the CNN
 *  proxy's functional conv stack costs about 1 s per sample per pass. */
constexpr int64_t kQuantBatch = 1;

/** PrecisionLoss's inputs, restated so the traced run can time the
 *  executions apart from input generation. */
std::vector<Tensor>
ProxyInputs(const Graph& graph, int64_t batch, uint64_t seed)
{
    std::vector<bool> feeds_embedding(
        static_cast<size_t>(graph.num_layers()), false);
    for (const auto& layer : graph.layers()) {
        if (layer.kind != LayerKind::kEmbedding) continue;
        for (int in_id : layer.inputs) {
            feeds_embedding[static_cast<size_t>(in_id)] = true;
        }
    }
    std::vector<Tensor> inputs;
    Rng rng(seed);
    for (const auto& layer : graph.layers()) {
        if (layer.kind != LayerKind::kInput) continue;
        std::vector<int64_t> dims = {batch};
        for (int64_t d : layer.out_shape) dims.push_back(d);
        Tensor x{Shape(dims)};
        x.FillGaussian(rng, 1.0f);
        if (feeds_embedding[static_cast<size_t>(layer.id)]) {
            for (int64_t i = 0; i < x.NumElements(); ++i) {
                x[i] = std::fabs(x[i]) * 10000.0f;
            }
        }
        inputs.push_back(std::move(x));
    }
    return inputs;
}

class QuantWorkload : public Workload {
  public:
    Status
    Setup(uint64_t seed, Layers* layers) override
    {
        seed_ = seed;
        const Clock::time_point start = Clock::now();
        proxies_.clear();
        for (const auto& [name, domain] : kDomains) {
            proxies_.push_back(DomainProxyGraph(domain));
        }
        if (layers != nullptr) (*layers)["models.build_s"] = Since(start);
        return Status::Ok();
    }

    StatusOr<RunOutput>
    Run() override
    {
        std::vector<ErrorMetrics> errors;
        std::vector<double> part_s;
        for (const Graph& graph : proxies_) {
            for (const auto& [name, precision] : kPrecisions) {
                const Clock::time_point start = Clock::now();
                auto loss = PrecisionLoss(graph, precision, kQuantBatch,
                                          seed_);
                part_s.push_back(Since(start));
                T4I_RETURN_IF_ERROR(loss.status());
                errors.push_back(loss.value());
            }
        }
        RunOutput out = Output(errors);
        out.part_s = std::move(part_s);
        return out;
    }

    StatusOr<RunOutput>
    RunTraced(Layers* layers) override
    {
        Layers& L = *layers;
        std::vector<ErrorMetrics> errors;
        for (size_t d = 0; d < proxies_.size(); ++d) {
            const Graph& graph = proxies_[d];
            const std::string domain_key =
                std::string("tensor.execute_s.") + kDomains[d].first;
            for (const auto& [name, precision] : kPrecisions) {
                const std::vector<Tensor> inputs =
                    ProxyInputs(graph, kQuantBatch, seed_);
                ExecOptions ref;
                ref.precision = MatmulPrecision::kFp32;
                ref.batch = kQuantBatch;
                ref.weight_seed = seed_;
                Clock::time_point start = Clock::now();
                auto exact = Execute(graph, inputs, ref);
                double s = Since(start);
                T4I_RETURN_IF_ERROR(exact.status());
                L["tensor.execute_s.fp32"] += s;
                L[domain_key] += s;

                ExecOptions approx = ref;
                approx.precision = precision;
                start = Clock::now();
                auto lossy = Execute(graph, inputs, approx);
                s = Since(start);
                T4I_RETURN_IF_ERROR(lossy.status());
                L[std::string("tensor.execute_s.") + name] += s;
                L[domain_key] += s;

                start = Clock::now();
                auto error =
                    ComputeError(exact.value().final_output().data(),
                                 lossy.value().final_output().data());
                L["numerics.error_s"] += Since(start);
                T4I_RETURN_IF_ERROR(error.status());
                errors.push_back(error.value());
            }
        }
        return Output(errors);
    }

  private:
    static constexpr std::pair<const char*, AppDomain> kDomains[] = {
        {"mlp", AppDomain::kMlp},
        {"cnn", AppDomain::kCnn},
        {"rnn", AppDomain::kRnn},
        {"bert", AppDomain::kBert},
    };
    static constexpr std::pair<const char*, MatmulPrecision>
        kPrecisions[] = {
            {"int8", MatmulPrecision::kInt8},
            {"bf16", MatmulPrecision::kBf16},
        };

    RunOutput
    Output(const std::vector<ErrorMetrics>& errors) const
    {
        RunOutput out;
        out.requests = static_cast<int64_t>(errors.size());
        out.books_closed = true;
        out.passed = true;
        double int8_min = std::numeric_limits<double>::infinity();
        for (size_t i = 0; i < errors.size(); ++i) {
            const ErrorMetrics& e = errors[i];
            char line[160];
            // %a prints every bit of each double.
            std::snprintf(line, sizeof(line), "%s %s %a %a %a %a\n",
                          kDomains[i / 2].first, kPrecisions[i % 2].first,
                          e.max_abs_error, e.mean_abs_error, e.rms_error,
                          e.sqnr_db);
            out.sim_text += line;
            out.passed = out.passed && std::isfinite(e.sqnr_db);
            if (i % 2 == 0) int8_min = std::min(int8_min, e.sqnr_db);
        }
        char summary[96];
        std::snprintf(summary, sizeof(summary),
                      "sim: int8 SQNR min %.4f dB over %zu proxies",
                      int8_min, proxies_.size());
        out.sim_summary = summary;
        return out;
    }

    uint64_t seed_ = 0;
    std::vector<Graph> proxies_;
};

// ---------------------------------------------------------------------
// Workload table, pinned digests, metric tables
// ---------------------------------------------------------------------

struct WorkloadSpec {
    const char* name;
    /** Seed the checked-in inputs use; its digest is pinned. */
    uint64_t default_seed;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"crowd_forensics", 314},
    {"llm_flood", 21},
    {"quant_fidelity", 20150512},
};

std::unique_ptr<Workload>
MakeWorkload(const std::string& name)
{
    if (name == "crowd_forensics") {
        return std::make_unique<ScenarioWorkload>(
            "scenarios/flash_crowd.scn");
    }
    if (name == "llm_flood") {
        return std::make_unique<ScenarioWorkload>(
            "hostbench/scenarios/llm_flood.scn");
    }
    return std::make_unique<QuantWorkload>();
}

/** Pinned digest of @p workload at its default seed ("" if none). */
std::string
PinnedDigest(const std::string& workload)
{
    std::ifstream file("hostbench/digests.txt");
    std::string line;
    while (std::getline(file, line)) {
        std::istringstream is(line);
        std::string name;
        std::string digest;
        if (is >> name >> digest && name == workload) return digest;
    }
    return "";
}

/** Every per-layer metric and its unit, in output order. */
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"load.parse_s", "s"},
    {"load.build_source_s", "s"},
    {"load.source_s", "s"},
    {"load.takes", "count"},
    {"load.feedback", "count"},
    {"cluster.run_s", "s"},
    {"cluster.self_s", "s"},
    {"cluster.ns_per_request", "ns"},
    {"cluster.client_retries", "count"},
    {"cluster.failovers", "count"},
    {"llm.run_s", "s"},
    {"llm.self_s", "s"},
    {"llm.iterations", "count"},
    {"llm.ns_per_iteration", "ns"},
    {"llm.cost_calls", "count"},
    {"llm.cost_misses", "count"},
    {"llm.cost_hit_ratio", "ratio"},
    {"llm.cost_s", "s"},
    {"llm.cost_miss_s", "s"},
    {"obs.timeseries_s", "s"},
    {"obs.spans_s", "s"},
    {"obs.spans", "count"},
    {"obs.finish_s", "s"},
    {"obs.sampling.classify_s", "s"},
    {"obs.sampling.traces", "count"},
    {"obs.sampling.kept", "count"},
    {"obs.sampling.keep_ratio", "ratio"},
    {"obs.critical_path_s", "s"},
    {"obs.critical_path.paths", "count"},
    {"obs.report.build_s", "s"},
    {"obs.report.json_s", "s"},
    {"obs.report.bytes", "bytes"},
    {"models.build_s", "s"},
    {"tensor.execute_s.fp32", "s"},
    {"tensor.execute_s.int8", "s"},
    {"tensor.execute_s.bf16", "s"},
    {"tensor.execute_s.mlp", "s"},
    {"tensor.execute_s.cnn", "s"},
    {"tensor.execute_s.rnn", "s"},
    {"tensor.execute_s.bert", "s"},
    {"numerics.error_s", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.overhead_s", "s"},
};

/** Sequential, non-nested layer timers of one traced run: their sum
 *  can never exceed the run's host time. */
constexpr const char* kTopLevelLayers[] = {
    "load.build_source_s",     "cluster.run_s",
    "llm.run_s",               "obs.finish_s",
    "obs.sampling.classify_s", "obs.critical_path_s",
    "obs.report.build_s",      "obs.report.json_s",
    "tensor.execute_s.fp32",   "tensor.execute_s.int8",
    "tensor.execute_s.bf16",   "numerics.error_s",
};

std::string
MetricJson(const std::string& name, double value, const char* unit)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  name.c_str(), value, unit);
    return buf;
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

struct Args {
    std::string workload;
    uint64_t seed = 0;
    bool has_seed = false;
    double seconds = 10.0;
    int trace = 0;
    int64_t spawn_ns = -1;
    bool setup_only = false;
    bool perturb_digest = false;
};

bool
ParseArgs(int argc, char** argv, Args* args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--setup-only") {
            args->setup_only = true;
            continue;
        }
        if (flag == "--perturb-digest") {
            args->perturb_digest = true;
            continue;
        }
        if (i + 1 >= argc) return false;
        const std::string value = argv[++i];
        if (flag == "--workload") {
            args->workload = value;
        } else if (flag == "--seed") {
            args->seed = std::strtoull(value.c_str(), nullptr, 10);
            args->has_seed = true;
        } else if (flag == "--seconds") {
            args->seconds = std::atof(value.c_str());
        } else if (flag == "--trace") {
            args->trace = std::atoi(value.c_str());
        } else if (flag == "--spawn-ns") {
            args->spawn_ns = std::atoll(value.c_str());
        } else {
            return false;
        }
    }
    return !args->workload.empty() && args->seconds > 0.0;
}

/** The correctness gate: books close, the digest matches its
 *  reference, and at the default seed the workload's contract holds. */
class Gate {
  public:
    int64_t attempted = 0;
    int64_t failed = 0;

    bool
    Check(const char* what, const RunOutput& out,
          const std::string& reference, bool require_pass)
    {
        ++attempted;
        const std::string digest = Digest(out.sim_text);
        std::string why;
        if (!out.books_closed) why += " books-open";
        if (digest != reference) why += " digest-mismatch";
        if (require_pass && !out.passed) why += " contract-failed";
        if (why.empty()) return true;
        ++failed;
        std::printf("FAIL %s: digest %s, reference %s:%s\n", what,
                    digest.c_str(), reference.c_str(), why.c_str());
        return false;
    }
};

int
Main(int argc, char** argv)
{
    const Clock::time_point main_start = Clock::now();
    Args args;
    if (!ParseArgs(argc, argv, &args)) {
        std::fprintf(stderr,
                     "usage: hostbench --workload W --seed N --seconds S "
                     "--trace 0|1 [--spawn-ns T] "
                     "[--setup-only] [--perturb-digest]\n");
        return 2;
    }
    const WorkloadSpec* spec = nullptr;
    for (const WorkloadSpec& w : kWorkloads) {
        if (args.workload == w.name) spec = &w;
    }
    if (spec == nullptr) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const uint64_t seed = args.has_seed ? args.seed : spec->default_seed;
    // Process start: run.py passes the monotonic time it spawned us at
    // (steady_clock is CLOCK_MONOTONIC on Linux).
    const Clock::time_point process_start =
        args.spawn_ns >= 0
            ? Clock::time_point(std::chrono::nanoseconds(args.spawn_ns))
            : main_start;

    // --- set-up: the pinned check's inputs, then this seed's -----------
    Layers setup_layers;
    std::unique_ptr<Workload> pinned_run =
        MakeWorkload(args.workload);
    std::unique_ptr<Workload> seeded_run;
    Status status = pinned_run->Setup(spec->default_seed,
                                      seed == spec->default_seed
                                          ? &setup_layers
                                          : nullptr);
    if (status.ok() && seed != spec->default_seed) {
        seeded_run = MakeWorkload(args.workload);
        status = seeded_run->Setup(seed, &setup_layers);
    }
    if (!status.ok()) {
        std::fprintf(stderr, "setup: %s\n", status.ToString().c_str());
        return 2;
    }
    Workload& workload = seeded_run ? *seeded_run : *pinned_run;
    const double setup_s = Since(process_start);
    if (args.setup_only) {
        std::printf("setup_s %.9f\n", setup_s);
        return 0;
    }

    // --- pinned check at the default seed (the first run call) --------
    std::string pinned = PinnedDigest(args.workload);
    if (args.perturb_digest && !pinned.empty()) {
        pinned.back() = pinned.back() == '0' ? '1' : '0';
    }
    Gate gate;
    {
        auto check = pinned_run->Run();
        if (!check.ok()) {
            std::fprintf(stderr, "run: %s\n",
                         check.status().ToString().c_str());
            return 2;
        }
        std::printf("workload %s | pinned check at seed %llu: digest %s "
                    "(pinned %s) | %s\n",
                    args.workload.c_str(),
                    static_cast<unsigned long long>(spec->default_seed),
                    Digest(check.value().sim_text).c_str(),
                    pinned.empty() ? "none" : pinned.c_str(),
                    check.value().sim_summary.c_str());
        gate.Check("pinned check", check.value(), pinned, true);
    }

    // At the default seed every run must match the pin; at a held-out
    // seed every run must match the first (and there are at least two).
    const bool at_default = seed == spec->default_seed;
    std::string reference = at_default ? pinned : "";
    auto gate_run = [&](const char* what, const RunOutput& out) {
        if (reference.empty()) reference = Digest(out.sim_text);
        gate.Check(what, out, reference, at_default);
    };

    bool correct = true;
    std::vector<std::string> metrics;
    std::string sim_summary;
    int64_t runs = 0;
    if (args.trace == 0) {
        // Other tenants only ever slow a run down, so host_s is the
        // fastest time of each timed part, summed over the parts.
        std::vector<double> host;
        std::vector<double> best_part_s;
        int64_t requests = 0;
        const Clock::time_point loop_start = Clock::now();
        while (runs < 2 || Since(loop_start) < args.seconds) {
            const Clock::time_point start = Clock::now();
            auto out = workload.Run();
            host.push_back(Since(start));
            if (!out.ok()) {
                std::fprintf(stderr, "run: %s\n",
                             out.status().ToString().c_str());
                return 2;
            }
            ++runs;
            gate_run("run", out.value());
            requests = out.value().requests;
            sim_summary = out.value().sim_summary;
            std::vector<double> parts = out.value().part_s;
            if (parts.empty()) parts.push_back(host.back());
            if (best_part_s.empty()) best_part_s = parts;
            for (size_t i = 0; i < parts.size(); ++i) {
                best_part_s[i] = std::min(best_part_s[i], parts[i]);
            }
        }
        double host_s = 0.0;
        for (double s : best_part_s) host_s += s;
        rusage usage{};
        getrusage(RUSAGE_SELF, &usage);
        metrics.push_back(MetricJson("host_s", host_s, "s"));
        metrics.push_back(MetricJson(
            "peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0,
            "MB"));
        metrics.push_back(MetricJson("sim_requests_per_host_s",
                                     static_cast<double>(requests) / host_s,
                                     "1/s"));
        metrics.push_back(MetricJson("setup_s", setup_s, "s"));
        std::printf("%lld runs at seed %llu | host_s %.6f s | %s\n"
                    "host_s per run:",
                    static_cast<long long>(runs),
                    static_cast<unsigned long long>(seed), host_s,
                    sim_summary.c_str());
        for (double s : host) std::printf(" %.4f", s);
        std::printf("\n");
    } else {
        // Each round: the untraced run, the traced run (which must
        // reproduce it byte for byte), then the loop once per
        // detachable sink with that sink unbound.
        Layers sum;
        double untraced_s = 0.0;
        double traced_s = 0.0;
        double requests = 0.0;
        std::map<std::string, double> detached_loop_s;
        const Clock::time_point loop_start = Clock::now();
        while (runs < 1 || Since(loop_start) < args.seconds) {
            Clock::time_point start = Clock::now();
            auto plain = workload.Run();
            untraced_s += Since(start);
            Layers layers;
            start = Clock::now();
            auto traced = workload.RunTraced(&layers);
            const double host_s = Since(start);
            traced_s += host_s;
            Status after = Status::Ok();
            if (plain.ok() && traced.ok()) {
                after = workload.TimeAfterTrace(&layers);
            }
            if (!plain.ok() || !traced.ok() || !after.ok()) {
                const Status& bad = !plain.ok()    ? plain.status()
                                    : !traced.ok() ? traced.status()
                                                   : after;
                std::fprintf(stderr, "run: %s\n", bad.ToString().c_str());
                return 2;
            }
            ++runs;
            gate_run("untraced run", plain.value());
            gate_run("traced run", traced.value());
            if (traced.value().sim_text != plain.value().sim_text) {
                std::printf("FAIL parity: traced outputs differ from "
                            "the untraced run\n");
                correct = false;
            }
            double layer_sum = 0.0;
            for (const char* name : kTopLevelLayers) {
                auto it = layers.find(name);
                if (it != layers.end()) layer_sum += it->second;
            }
            // Two clock reads per timer bound the resolution slack.
            const double slack =
                4.0 * std::size(kTopLevelLayers) * EmptySpan() + 1e-9;
            if (layer_sum > host_s + slack) {
                std::printf("FAIL accounting: layers sum to %.9f s, run "
                            "took %.9f s\n",
                            layer_sum, host_s);
                correct = false;
            }
            for (const std::string& sink : workload.DetachableSinks()) {
                auto loop_s = workload.RunLoopWithout(sink);
                if (!loop_s.ok()) {
                    std::fprintf(stderr, "run: %s\n",
                                 loop_s.status().ToString().c_str());
                    return 2;
                }
                detached_loop_s[sink] += loop_s.value();
            }
            for (const auto& [name, value] : layers) sum[name] += value;
            sum["trace.unattributed_s"] += host_s - layer_sum;
            requests += static_cast<double>(traced.value().requests);
            sim_summary = traced.value().sim_summary;
        }
        // Per-run means.
        Layers L;
        const double n = static_cast<double>(runs);
        for (const auto& [name, value] : sum) L[name] = value / n;
        for (const auto& [name, value] : setup_layers) L[name] = value;
        L["trace.overhead_s"] = (traced_s - untraced_s) / n;
        const auto get = [&](const char* name) {
            auto it = L.find(name);
            return it == L.end() ? 0.0 : it->second;
        };
        const bool is_llm = L.count("llm.run_s") > 0;
        const bool is_cluster = L.count("cluster.run_s") > 0;
        if (is_llm || is_cluster) {
            const double loop_s = get(is_llm ? "llm.run_s" : "cluster.run_s");
            L["obs.timeseries_s"] =
                loop_s - detached_loop_s["timeseries"] / n;
            if (detached_loop_s.count("spans") > 0) {
                L["obs.spans_s"] = loop_s - detached_loop_s["spans"] / n;
            }
            L[is_llm ? "llm.self_s" : "cluster.self_s"] =
                loop_s - get("load.source_s") - get("obs.timeseries_s") -
                get("obs.spans_s") - get("llm.cost_s");
        }
        if (is_cluster) {
            L["cluster.ns_per_request"] =
                get("cluster.run_s") * 1e9 / (requests / n);
        }
        if (is_llm) {
            L["llm.ns_per_iteration"] =
                get("llm.run_s") * 1e9 / get("llm.iterations");
            L["llm.cost_hit_ratio"] =
                1.0 - get("llm.cost_misses") / get("llm.cost_calls");
        }
        if (get("obs.sampling.traces") > 0.0) {
            L["obs.sampling.keep_ratio"] =
                get("obs.sampling.kept") / get("obs.sampling.traces");
        }
        for (const auto& [name, unit] : kLayerMetrics) {
            auto it = L.find(name);
            double value = 0.0;
            if (it != L.end()) {
                value = it->second;
            } else if (std::string(unit) == "s") {
                value = EmptySpan();  // a layer off this workload's path
            } else if (std::string(unit) == "ns") {
                value = EmptySpan() * 1e9;
            }
            metrics.push_back(MetricJson(name, value, unit));
        }
        std::printf("%lld traced rounds at seed %llu | traced %.6f s, "
                    "untraced %.6f s per run | %s\n",
                    static_cast<long long>(runs),
                    static_cast<unsigned long long>(seed), traced_s / n,
                    untraced_s / n, sim_summary.c_str());
        for (const auto& [name, value] : L) {
            std::printf("  %-28s %.9g\n", name.c_str(), value);
        }
    }

    correct = correct && gate.failed == 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(gate.attempted) +
            ", \"failed\": " + std::to_string(gate.failed) +
            ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        json += (i > 0 ? ", " : "") + metrics[i];
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}

}  // namespace
}  // namespace t4i

int
main(int argc, char** argv)
{
    return t4i::Main(argc, argv);
}

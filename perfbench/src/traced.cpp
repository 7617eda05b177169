// The traced run: per-layer numbers for one workload, in four phases.
//
//   A  the workload untraced, as in a measured run: the server's stats op
//      and /proc give the counters, and its p50 is the tracing baseline;
//   B  the workload again with spans: a root span per request (scheduled
//      send to answer) and, right after each send, child spans around the
//      benchmark's own calls into each layer's public functions on that
//      request's exact bytes (decode, parse, cache lookup, explain, insert,
//      render);
//   C  phase A's plan (same requests, arrival times, warm-up and window)
//      through an in-process ExplanationService (submit_async), for the
//      service-side waits and the TCP overhead;
//   D  direct calls into core and mlcore on the seed's models, one layer at
//      a time, with the server idle.
//
// Spans stay in memory and are written to <workdir>/trace-<workload>-<seed>.json
// when the run ends.
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "core/flat_tree_shap.hpp"
#include "core/interaction.hpp"
#include "harness.hpp"
#include "mlcore/rng.hpp"
#include "mlcore/serialize.hpp"
#include "serve/explanation_cache.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"

namespace perfbench {

namespace {

namespace serve = xnfv::serve;

const char* explain_span(const std::string& method) {
    if (method == "tree_shap") return "core.flat_tree_shap.explain";
    if (method == "integrated_gradients") return "core.gradient.explain";
    if (method == "occlusion") return "core.occlusion.explain";
    if (method == "lime") return "core.lime.explain";
    if (method == "sampling") return "core.sampling.explain";
    return "core.kernel_shap.explain";
}

/// The server's per-request work, redone by the benchmark on each request's
/// bytes with the repository's public functions: one LineDecoder, one
/// ExplanationCache per tenant, the flat kernels and explainers.
class Replica {
public:
    Replica(const Inputs& inputs, const WorkloadSpec& spec, Oracle& oracle)
        : background_(&inputs.background) {
        for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
            const std::size_t m = model_index(inputs, spec.tenants[t]);
            Tenant tenant{inputs.models[m], xai::FlatTreeShap::build(*inputs.models[m]),
                          std::make_unique<serve::ExplanationCache>(spec.cache, 8), nullptr};
            if (spec.name == "fleet_churn" && t == 0) tenant.table = &oracle.table(m);
            tenants_.push_back(std::move(tenant));
        }
    }

    void process(const Request& r, std::uint64_t index, std::uint32_t root, Tracer& t) {
        Tenant& tenant = tenants_[r.tenant];
        frames_.clear();
        t.timed("serve.decode", index, root,
                [&] { decoder_.feed(r.line.data(), r.line.size(), frames_); });
        const auto x = t.timed("serve.parse", index, root, [&] {
            return serve::extract_features(serve::parse_json(frames_.at(0).text),
                                           tenant.model->num_features());
        });
        const std::string method =
            serve::route_explainer(r.method, serve::classify_model(*tenant.model)).method;
        const std::uint64_t context =
            fnv1a(method, r.tenant * 1000003ULL + r.interactions);
        const serve::CacheKey key(x.features, 0.0, context);
        serve::ExplainResponse response;
        response.id = r.id;
        response.ok = true;
        if (auto hit = t.timed("serve.cache.lookup", index, root,
                               [&] { return tenant.cache->lookup(key); })) {
            response.cache_hit = true;
            response.explanation = std::move(*hit);
        } else {
            response.explanation = t.timed(explain_span(method), index, root, [&] {
                if (method == "tree_shap") return tenant.flat->explain(x.features, scratch_);
                return serve::make_explainer(method, *background_, kServerSeed, kServerThreads)
                    ->explain(*tenant.model, x.features);
            });
            if (r.interactions > 0 && tenant.table)
                response.explanation.interactions.assign(
                    tenant.table->begin(),
                    tenant.table->begin() +
                        static_cast<std::ptrdiff_t>(std::min(r.interactions, tenant.table->size())));
            t.timed("serve.cache.insert", index, root,
                    [&] { tenant.cache->insert(key, response.explanation); });
        }
        rendered_ = t.timed("serve.render", index, root,
                            [&] { return serve::render_response(response); });
    }

private:
    struct Tenant {
        std::shared_ptr<const ml::Model> model;
        std::shared_ptr<const xai::FlatTreeShap> flat;  ///< null for the MLP
        std::unique_ptr<serve::ExplanationCache> cache;
        const std::vector<xai::InteractionPair>* table = nullptr;
    };
    const xai::BackgroundData* background_;
    std::vector<Tenant> tenants_;
    serve::LineDecoder decoder_;
    std::vector<serve::Frame> frames_;
    xai::FlatShapScratch scratch_;
    std::string rendered_;
};


double median_us(const Tracer& t, const char* name) {
    auto v = t.durations_us(name);
    return quantile(v, 0.5);
}

/// A 128-row block shaped like an explainer's probe rows: background rows
/// with a random coalition of features replaced by the instance's values.
ml::Matrix probe_block(const xai::BackgroundData& bg, std::span<const double> x, ml::Rng& rng) {
    const auto& samples = bg.samples();
    ml::Matrix block(128, samples.cols());
    for (std::size_t r = 0; r < 128; ++r) {
        const auto src = samples.row(rng.uniform_index(samples.rows()));
        auto dst = block.row(r);
        for (std::size_t f = 0; f < dst.size(); ++f) dst[f] = rng.uniform() < 0.5 ? x[f] : src[f];
    }
    return block;
}

}  // namespace

int run_traced(const Args& args) {
    const WorkloadSpec& spec = workload_spec(args.workload);
    const KeepAwake awake;
    const Inputs inputs = make_inputs(spec, args.workdir, true);
    TelemetryPool pool(args.seed);
    RequestStream stream(spec, args.seed, pool);
    Oracle oracle(inputs);
    const double phase_s = args.seconds / 2;
    Tracer tracer;
    std::vector<Metric> out;
    const auto add = [&out](const std::string& name, double value, const char* unit,
                            double n) {
        out.push_back({name, value, unit, static_cast<std::size_t>(n)});
    };

    Live live;
    (void)launch(live, args, spec, inputs, stream.warm_set());

    // Phase A: untraced.
    const LoadPlan plan_a{kWarmSeconds, args.seconds, 0};
    Checker checker(stream);
    ProcSample p0, p1;
    LoadHooks plain;
    plain.on_response = [&](std::size_t i, std::string_view line, Clock::time_point) {
        checker.on_response(i, line);
    };
    plain.at_window_begin = [&] { p0 = live.server->sample(); };
    plain.at_window_end = [&] { p1 = live.server->sample(); };
    const LoadResult a = run_load(*live.tcp, stream, spec, plan_a, args.seed, plain);
    const auto stats = serve::parse_json(live.tcp->admin("{\"op\":\"stats\"}"));
    const auto before = serve::parse_json(live.tcp->stats_before());

    // Phase B: traced.
    Replica replica(inputs, spec, oracle);
    std::vector<std::uint32_t> roots;
    LoadHooks traced;
    const std::size_t b_first = a.first_index + a.exchanges.size();
    traced.after_send = [&](std::size_t index, const Exchange& e) {
        const auto root = tracer.open("request", index, Tracer::kNoParent, e.due);
        if (roots.size() <= index - b_first) roots.resize(index - b_first + 1);
        roots[index - b_first] = root;
        replica.process(stream.at(index), index, root, tracer);
    };
    traced.on_response = [&](std::size_t index, std::string_view line, Clock::time_point at) {
        tracer.close(roots.at(index - b_first), at);
        checker.on_response(index, line);
    };
    const LoadResult b = run_load(*live.tcp, stream, spec, {1.0, phase_s, b_first},
                                  args.seed + 1, traced);

    // Phase C: phase A's plan in process.
    serve::ServiceConfig cfg;
    cfg.method = "auto";
    cfg.threads = kServerThreads;
    cfg.cache_capacity = spec.cache;
    cfg.interaction_points = kInteractionPoints;
    cfg.default_model_name = spec.tenants[0];
    for (std::size_t t = 1; t < spec.tenants.size(); ++t)
        cfg.extra_models.push_back(
            {spec.tenants[t], inputs.models[model_index(inputs, spec.tenants[t])], 1, 0});
    serve::ExplanationService service(inputs.models[model_index(inputs, spec.tenants[0])],
                                      inputs.background, cfg);
    Checker inproc(stream);
    LoadResult c;
    serve::ServiceStats svc;
    try {
        // The transport receives the service's completions: stop the service
        // before the transport goes away, on every path.
        ServiceTransport local(service);
        if (send_all(local, stream.warm_set()) != stream.warm_set().size())
            throw std::runtime_error("an in-process set-up request was not answered ok");
        LoadHooks in_process;
        in_process.on_response = [&](std::size_t i, std::string_view line, Clock::time_point) {
            inproc.on_response(i, line);
        };
        c = run_load(local, stream, spec, plan_a, args.seed, in_process);
        svc = service.stats();
        service.stop();
    } catch (...) {
        service.stop();
        throw;
    }

    // Phase D: direct calls with the server idle.
    std::uint64_t call = 0;
    for (int k = 0; k < 1000; ++k)
        tracer.timed("net.use_rtt", call++, Tracer::kNoParent,
                     [&] { (void)live.tcp->admin("{\"op\":\"use\"}"); });
    const auto& rf = *inputs.models[model_index(inputs, "rf")];
    for (const auto& tenant : spec.tenants) {
        const std::size_t m = model_index(inputs, tenant);
        for (int k = 0; k < 5; ++k) {
            (void)tracer.timed("mlcore.load_model", call++, Tracer::kNoParent,
                               [&] { return ml::load_model_file(inputs.model_paths[m]); });
            if (serve::is_tree_kind(serve::classify_model(*inputs.models[m])))
                (void)tracer.timed("mlcore.flat_build", call++, Tracer::kNoParent,
                                   [&] { return xai::FlatTreeShap::build(*inputs.models[m]); });
        }
    }
    const auto flat = xai::FlatTreeShap::build(rf);
    xai::FlatShapScratch scratch;
    for (std::size_t r = 0; r < 300; ++r)
        (void)tracer.timed("core.flat_tree_shap.explain", call++, Tracer::kNoParent,
                           [&] { return flat->explain(pool.row(r), scratch); });
    const std::size_t mlp = model_index(inputs, "mlp");
    const auto ig = serve::make_explainer("integrated_gradients", inputs.background, kServerSeed, 1);
    for (std::size_t r = 0; r < 200; ++r)
        (void)tracer.timed("core.gradient.explain", call++, Tracer::kNoParent,
                           [&] { return ig->explain(*inputs.models[mlp], pool.row(r)); });
    double one_thread = 0.0, served_threads = 0.0;
    for (const char* method : {"occlusion", "lime", "sampling"}) {
        // As served: a fresh explainer per request, at the served thread
        // count, and at one thread for the pool's speed-up.
        std::vector<double> t1, tn;
        for (std::size_t r = 0; r < 20; ++r) {
            for (const std::size_t threads : {std::size_t{1}, kServerThreads}) {
                const auto id = tracer.begin(threads == 1 ? "core.probe.explain_1t"
                                                          : explain_span(method),
                                             call++);
                (void)serve::make_explainer(method, inputs.background, kServerSeed, threads)
                    ->explain(rf, pool.row(r));
                tracer.end(id);
                const auto& span = tracer.spans()[id];
                (threads == 1 ? t1 : tn).push_back(us_between(span.start, span.end));
            }
        }
        one_thread += quantile(t1, 0.5);
        served_threads += quantile(tn, 0.5);
    }
    tracer.timed("core.interaction.table", call++, Tracer::kNoParent, [&] {
        const std::size_t d = inputs.background.num_features();
        const xai::InteractionOptions options{kInteractionPoints};
        for (std::size_t j = 0; j + 1 < d; ++j)
            for (std::size_t k = j + 1; k < d; ++k)
                (void)xai::friedman_h2(rf, inputs.background, j, k, options);
    });
    ml::Rng blocks_rng(args.seed);
    std::vector<ml::Matrix> blocks;
    for (std::size_t r = 0; r < 16; ++r)
        blocks.push_back(probe_block(inputs.background, pool.row(r), blocks_rng));
    static const std::pair<const char*, const char*> kPredict[] = {
        {"rf", "mlcore.predict_batch.rf"},
        {"gbt", "mlcore.predict_batch.gbt"},
        {"mlp", "mlcore.predict_batch.mlp"}};
    std::vector<double> sink(128);
    for (const auto& [kind, span] : kPredict) {
        const auto& model = *inputs.models[model_index(inputs, kind)];
        for (int rep = 0; rep < 20; ++rep)
            for (const auto& block : blocks)
                tracer.timed(span, call++, Tracer::kNoParent,
                             [&] { model.predict_batch(block, sink); });
    }

    const bool drained = live.stop();
    (void)checker.verify(oracle, spec);
    (void)inproc.verify(oracle, spec);
    const auto ok = [&](std::size_t i) { return checker.ok(i); };
    Tally ta = tally(a, ok), tb = tally(b, ok);
    Tally tc = tally(c, [&](std::size_t i) { return inproc.ok(i); });
    const double base_p50 = quantile(ta.latency_us, 0.5);
    const double traced_p50 = quantile(tb.latency_us, 0.5);
    const double inproc_p50 = quantile(tc.latency_us, 0.5);
    const std::size_t completed = ta.completed;
    const std::string shape = shape_violation(spec, stats, before, checker);
    tracer.write_json(args.workdir + "/trace-" + spec.name + "-" + std::to_string(args.seed) +
                      ".json");

    // Per-layer metrics, in BENCHMARK.json order.
    const double completed_d = completed ? static_cast<double>(completed) : 1.0;
    const double net_requests = std::max(1.0, stat(stats, "net_requests"));
    const double hits = stat(stats, "cache_hits"), misses = stat(stats, "cache_misses");
    const double lookups = std::max(1.0, hits + misses);
    const double misses_d = std::max(1.0, misses);
    double slice_requests = 0.0, slice_weighted = 0.0;
    if (const auto* slices = stats.find("explainers"))
        for (const auto& s : slices->array) {
            slice_requests += s.get_number("requests", 0);
            slice_weighted += s.get_number("requests", 0) * s.get_number("compute_us_mean", 0);
        }
    const double accepted = stat(stats, "requests_accepted"),
                 rejected = stat(stats, "requests_rejected");
    const double cpu_user = p1.user_s - p0.user_s, cpu_sys = p1.sys_s - p0.sys_s;
    auto roots_self = tracer.root_self_us();
    auto use_rtt = tracer.durations_us("net.use_rtt");
    auto load_ms = tracer.durations_us("mlcore.load_model");
    auto build_ms = tracer.durations_us("mlcore.flat_build");
    const auto ns_per_row = [&](const char* name) { return median_us(tracer, name) * 1e3 / 128; };

    add("net.bare_rtt_us", quantile(use_rtt, 0.5), "us", use_rtt.size());
    add("net.overhead_us", base_p50 - inproc_p50, "us", a.exchanges.size());
    add("net.bytes_in_per_req", stat(stats, "net_bytes_in") / net_requests, "B", net_requests);
    add("net.bytes_out_per_req", stat(stats, "net_bytes_out") / net_requests, "B", net_requests);
    add("serve.decode_ns", median_us(tracer, "serve.decode") * 1e3, "ns",
        tracer.durations_us("serve.decode").size());
    add("serve.parse_us", median_us(tracer, "serve.parse"), "us",
        tracer.durations_us("serve.parse").size());
    add("serve.render_us", median_us(tracer, "serve.render"), "us",
        tracer.durations_us("serve.render").size());
    add("serve.service_us_p50", stat(stats, "service_us_p50"), "us", completed);
    add("serve.service_us_p99", stat(stats, "service_us_p99"), "us", completed);
    add("serve.wait_us", svc.service_us_mean - svc.compute_us_mean, "us", svc.requests_completed);
    add("serve.batch_size_mean", stat(stats, "batch_size_mean"), "count",
        static_cast<std::size_t>(stat(stats, "batches")));
    add("serve.batches_per_req", stat(stats, "batches") / completed_d, "ratio", completed);
    add("serve.cache.hit_ratio", hits / lookups, "ratio", static_cast<std::size_t>(lookups));
    add("serve.cache.evictions_per_req",
        (stat(stats, "cache_evictions") - stat(before, "cache_evictions")) / completed_d,
        "ratio", completed);
    add("serve.cache.lookup_ns", median_us(tracer, "serve.cache.lookup") * 1e3, "ns",
        tracer.durations_us("serve.cache.lookup").size());
    add("serve.cache.insert_ns", median_us(tracer, "serve.cache.insert") * 1e3, "ns",
        tracer.durations_us("serve.cache.insert").size());
    add("serve.queue_depth_max", static_cast<double>(svc.queue_depth_max), "count", 1);
    add("serve.rejected_ratio", rejected / std::max(1.0, accepted + rejected), "ratio",
        static_cast<std::size_t>(accepted + rejected));
    for (const char* name : {"core.flat_tree_shap.explain", "core.gradient.explain",
                             "core.occlusion.explain", "core.lime.explain",
                             "core.sampling.explain"}) {
        // Phase D's quiet calls: top-level spans (B's explains are children).
        std::vector<double> v;
        for (const auto& s : tracer.spans())
            if (s.parent == Tracer::kNoParent && std::string_view(s.name) == name)
                v.push_back(us_between(s.start, s.end));
        add(std::string(name) + "_us", quantile(v, 0.5), "us", v.size());
    }
    add("core.compute_us_mean", slice_requests ? slice_weighted / slice_requests : 0.0, "us",
        static_cast<std::size_t>(slice_requests));
    add("core.probe_rows_per_req", stat(stats, "model_evals") / misses_d, "count",
        static_cast<std::size_t>(misses));
    add("core.fast_path_ratio", stat(stats, "fast_path_hits") / misses_d, "ratio",
        static_cast<std::size_t>(misses));
    add("core.interaction.table_s", median_us(tracer, "core.interaction.table") / 1e6, "s", 1);
    add("core.parallel.speedup", one_thread / served_threads, "ratio", 60);
    add("mlcore.predict_batch_ns_per_row.rf", ns_per_row("mlcore.predict_batch.rf"), "ns", 320);
    add("mlcore.predict_batch_ns_per_row.gbt", ns_per_row("mlcore.predict_batch.gbt"), "ns", 320);
    add("mlcore.predict_batch_ns_per_row.mlp", ns_per_row("mlcore.predict_batch.mlp"), "ns", 320);
    add("mlcore.load_model_ms", quantile(load_ms, 0.5) / 1e3, "ms", load_ms.size());
    add("mlcore.flat_build_ms", quantile(build_ms, 0.5) / 1e3, "ms", build_ms.size());
    add("proc.ctx_switches_per_req",
        static_cast<double>(p1.voluntary_switches - p0.voluntary_switches) / completed_d,
        "count", completed);
    add("proc.sys_cpu_share", cpu_sys / std::max(1e-9, cpu_user + cpu_sys), "ratio", completed);
    add("proc.threads", static_cast<double>(p1.threads), "count", 1);
    add("loadgen.late_p99_us", quantile(ta.late_us, 0.99), "us", ta.late_us.size());
    add("loadgen.latency_p99_us", quantile(ta.latency_us, 0.99), "us", ta.latency_us.size());
    add("trace.unattributed_us", quantile(roots_self, 0.5), "us", roots_self.size());
    add("trace.overhead_ratio", traced_p50 / base_p50, "ratio", b.exchanges.size());

    std::printf("# traced %s seed %" PRIu64 ": untraced p50 %.1f us, traced p50 %.1f us, "
                "in-process p50 %.1f us, %zu spans\n",
                spec.name.c_str(), args.seed, base_p50, traced_p50, inproc_p50,
                tracer.spans().size());
    const std::size_t sent = ta.sent + tb.sent + tc.sent;
    const std::size_t failed = ta.sent_failed + tb.sent_failed + tc.sent_failed;
    std::printf("# requests sent %zu (warm-up included, phases A to C), failed %zu; "
                "one-shot byte checks %zu; shape %s; drained %s\n",
                sent, failed, checker.checked() + inproc.checked(),
                shape.empty() ? "ok" : shape.c_str(), drained ? "yes" : "no");
    const bool correct = failed == 0 && shape.empty() && drained && a.drained && b.drained &&
                         c.drained && ta.attempted > 0;
    print_result(correct, sent, failed, out);
    return correct ? 0 : 1;
}

}  // namespace perfbench

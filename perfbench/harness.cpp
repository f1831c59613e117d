/**
 * @file
 * The measuring half of the end-to-end benchmark (run.py is the other
 * half: it builds this binary, derives every input from one seed, and
 * turns the raw samples written here into the reported metrics).
 *
 *   orion_perfbench --workload <name> --seconds <s> --trace <0|1>
 *                   --image-seed <u64> --key-seed <u64>
 *                   [--schedule <file>] [--setup-only] --out <file>
 *
 * Workloads (see README.md for why each exists):
 *  - cnn-relu-boot: Conv2d -> composite ReLU -> Linear at a bootstrap-
 *    capable ring, self-keyed closed loop through orion::Session.
 *  - lola-leveled: the LoLa network at a leveled ring, same closed loop.
 *  - serve-open-churn: the micro MLP behind an InferenceServer and a
 *    net::ServeEndpoint on loopback; open-loop slices driven by the
 *    schedule file, alternating with closed-loop saturation slices.
 *
 * The raw report is one JSON object: per-sample arrays (latency, error,
 * argmax agreement, top-2 gap), counters read from the stats the public
 * API returns and from telemetry::Registry::global(), host diagnostics,
 * and (with --trace 1) the benchmark's own spans around each layer call.
 * Nothing here normalizes a number; run.py only aggregates.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "src/core/orion.h"
#include "src/core/telemetry.h"
#include "src/net/net.h"
#include "src/serve/serve.h"

using namespace orion;

namespace {

using Clock = std::chrono::steady_clock;

/** Fewest measured images of a closed-loop run (see stats.py's tail). */
constexpr u64 kMinSamples = 30;

double
seconds_since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ------------------------------------------------------------ inputs

/** splitmix64: the one derivation step behind every seeded input. */
u64
splitmix64(u64 x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Image `index` of a run: uniform(-1, 1) entries from (seed, index). */
std::vector<double>
make_image(u64 seed, u64 index, std::size_t size)
{
    std::vector<double> x(size);
    u64 state = splitmix64(seed ^ splitmix64(index + 1));
    for (double& v : x) {
        state = splitmix64(state);
        v = 2.0 * static_cast<double>(state >> 11) * 0x1.0p-53 - 1.0;
    }
    return x;
}

// ------------------------------------------------------------ tracing

/**
 * The benchmark's own spans: name, start, end, parent span and the image
 * or request id they belong to. Kept in memory, written at exit. When
 * disabled every call is a no-op returning -1.
 */
class Tracer {
  public:
    explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now())
    {
    }

    bool enabled() const { return enabled_; }

    int
    begin(const char* name, i64 id, int parent = -1)
    {
        if (!enabled_) return -1;
        const auto t0 = Clock::now();
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, id, parent, ns(Clock::now()), 0});
        overhead_ns_ += static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        return static_cast<int>(spans_.size() - 1);
    }

    void
    end(int span)
    {
        if (!enabled_ || span < 0) return;
        const auto t0 = Clock::now();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(span)].t1_ns = ns(t0);
        overhead_ns_ += static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
    }

    /** A span with explicit bounds (e.g. one scheduled before it ran). */
    int
    record(const char* name, i64 id, int parent, Clock::time_point t0,
           Clock::time_point t1)
    {
        if (!enabled_) return -1;
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back({name, id, parent, ns(t0), ns(t1)});
        return static_cast<int>(spans_.size() - 1);
    }

    /** Wall time spent inside begin()/end() so far. */
    double
    overhead_s() const
    {
        return 1e-9 * static_cast<double>(overhead_ns_);
    }

    void
    write(const std::string& path) const
    {
        std::ofstream os(path);
        os << "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            os << (i ? ",\n" : "") << "{\"name\":\"" << s.name
               << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
               << ",\"start_ns\":" << s.t0_ns << ",\"end_ns\":" << s.t1_ns
               << "}";
        }
        os << "]\n";
    }

  private:
    struct Span {
        const char* name;
        i64 id;
        int parent;
        u64 t0_ns;
        u64 t1_ns;
    };

    u64
    ns(Clock::time_point t) const
    {
        return static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
                .count());
    }

    bool enabled_;
    Clock::time_point epoch_;
    std::mutex mu_;
    std::vector<Span> spans_;
    u64 overhead_ns_ = 0;
};

/** RAII span over one call into a layer. */
class Scope {
  public:
    Scope(Tracer& t, const char* name, i64 id, int parent = -1)
        : t_(t), span_(t.begin(name, id, parent))
    {
    }
    ~Scope() { t_.end(span_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return span_; }

  private:
    Tracer& t_;
    int span_;
};

// ------------------------------------------------------------ report

/** Flat JSON object of numbers and number arrays (the raw report). */
class Report {
  public:
    void
    num(const std::string& key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", finite(v));
        fields_.emplace_back(key, buf);
    }

    void
    arr(const std::string& key, const std::vector<double>& v)
    {
        std::string s = "[";
        char buf[64];
        for (std::size_t i = 0; i < v.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", finite(v[i]));
            if (i) s += ",";
            s += buf;
        }
        fields_.emplace_back(key, s + "]");
    }

    void
    str(const std::string& key, const std::string& v)
    {
        fields_.emplace_back(key, "\"" + v + "\"");
    }

    void
    write(const std::string& path) const
    {
        std::ofstream os(path);
        os << "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            os << (i ? ",\n" : "\n") << "\"" << fields_[i].first
               << "\": " << fields_[i].second;
        }
        os << "\n}\n";
    }

  private:
    /** JSON has no inf/nan: a non-finite value (a failed check's error
     *  or gap) is written as the largest double, so it can never pass. */
    static double
    finite(double v)
    {
        if (std::isfinite(v)) return v;
        return v < 0 ? -1.7976931348623157e308 : 1.7976931348623157e308;
    }

    std::vector<std::pair<std::string, std::string>> fields_;
};

// ------------------------------------------------------------ host

/** Peak resident set size in MiB (VmHWM). */
double
peak_rss_mb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        long kb = 0;
        if (std::sscanf(line.c_str(), "VmHWM: %ld", &kb) == 1) {
            return static_cast<double>(kb) / 1024.0;
        }
    }
    return 0.0;
}

/** Summed steal ticks over all CPUs (/proc/stat, 8th value of "cpu"). */
double
steal_ticks()
{
    std::ifstream is("/proc/stat");
    std::string cpu;
    double v[8] = {};
    is >> cpu;
    for (double& x : v) is >> x;
    return cpu == "cpu" ? v[7] : 0.0;
}

double
load_average()
{
    std::ifstream is("/proc/loadavg");
    double l1 = 0.0;
    is >> l1;
    return l1;
}

/**
 * A fixed integer loop: its wall time at the start and end of a run shows
 * how fast the host was, without touching any measured number.
 */
double
calibration_loop_s()
{
    const auto t0 = Clock::now();
    volatile u64 sink = 0;
    u64 x = 88172645463325252ULL;
    for (int i = 0; i < 20'000'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    sink = x;
    (void)sink;
    return seconds_since(t0);
}

// ------------------------------------------------------------ checks

/** Per-image comparison against the cleartext network. */
struct Check {
    double max_err = 0.0;
    bool argmax_match = true;
    double top2_gap = 0.0;  ///< cleartext top-1 minus top-2 logit
};

Check
check_output(const std::vector<double>& got, const std::vector<double>& want)
{
    Check c;
    if (got.size() != want.size() || want.empty()) {
        c.max_err = INFINITY;
        c.argmax_match = false;
        return c;
    }
    std::size_t best_got = 0, best = 0;
    for (std::size_t i = 0; i < want.size(); ++i) {
        c.max_err = std::max(c.max_err, std::abs(got[i] - want[i]));
        if (got[i] > got[best_got]) best_got = i;
        if (want[i] > want[best]) best = i;
    }
    double second = -INFINITY;
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (i != best) second = std::max(second, want[i]);
    }
    c.argmax_match = best_got == best;
    c.top2_gap = want.size() > 1 ? want[best] - second : INFINITY;
    return c;
}

/** Samples and checks of every measured image/request. */
struct Samples {
    std::vector<double> latency_ms, max_err, argmax_match, top2_gap;
    u64 attempted = 0;
    u64 failed = 0;  ///< threw, refused, or returned nothing

    void
    add(double lat_ms, const Check& c)
    {
        ++attempted;
        latency_ms.push_back(lat_ms);
        max_err.push_back(c.max_err);
        argmax_match.push_back(c.argmax_match ? 1.0 : 0.0);
        top2_gap.push_back(c.top2_gap);
    }

    void
    write(Report& r) const
    {
        r.arr("latency_ms", latency_ms);
        r.arr("max_err", max_err);
        r.arr("argmax_match", argmax_match);
        r.arr("top2_gap", top2_gap);
        r.num("attempted", static_cast<double>(attempted));
        r.num("failed", static_cast<double>(failed));
    }
};

double
median(std::vector<double> v)
{
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The process registry: ckks.op.* of every live context, boot.*, net.*. */
std::map<std::string, double>
registry_snapshot()
{
    return telemetry::Registry::global().snapshot();
}

double
delta(const std::map<std::string, double>& a,
      const std::map<std::string, double>& b, const std::string& key)
{
    const auto ia = a.find(key);
    const auto ib = b.find(key);
    return (ib == b.end() ? 0.0 : ib->second) -
           (ia == a.end() ? 0.0 : ia->second);
}

/** Per-image kernel counts of a measured phase. */
void
write_op_counts(Report& r, const std::map<std::string, double>& before,
                const std::map<std::string, double>& after, double images)
{
    const double n = std::max(images, 1.0);
    r.num("ops.keyswitch", delta(before, after, "ckks.op.keyswitch") / n);
    r.num("ops.ntt", delta(before, after, "ckks.op.ntt") / n);
    r.num("ops.rotations", (delta(before, after, "ckks.op.hrot") +
                            delta(before, after, "ckks.op.hrot_hoisted")) /
                               n);
    r.num("ops.pmult", delta(before, after, "ckks.op.pmult") / n);
    // Both directions: client and endpoint share the process counter.
    r.num("ops.net_bytes", delta(before, after, "net.bytes.tx") / n);
    const double allocs = delta(before, after, "ckks.op.poly_alloc");
    r.num("ops.arena_hit_ratio",
          allocs > 0 ? delta(before, after, "ckks.op.poly_arena_hit") / allocs
                     : 0.0);
    double boot_s = 0.0;
    for (const char* stage : {"boot.mod_raise.seconds.sum",
                              "boot.cts.seconds.sum",
                              "boot.eval_mod.seconds.sum",
                              "boot.stc.seconds.sum"}) {
        boot_s += delta(before, after, stage);
    }
    r.num("ops.bootstrap_ms", 1e3 * boot_s / n);
}

// ------------------------------------------------------------ options

struct Args {
    std::string workload;
    double seconds = 10.0;
    bool trace = false;
    bool setup_only = false;
    u64 image_seed = 1;
    u64 key_seed = 1;
    std::string schedule;
    std::string out;
};

/** The one kernel-thread setting of every CKKS workload. */
core::OrionConfig
one_thread()
{
    core::OrionConfig cfg = core::config();
    cfg.num_threads = 1;
    return cfg;
}

// ------------------------------------------------------------ closed loop

/** He-init seed of the cnn-relu-boot weights. */
constexpr u64 kCnnWeightSeed = 7;

/** The small ReLU CNN of cnn-relu-boot, as a module tree. */
nn::ModulePtr
make_relu_cnn()
{
    std::vector<nn::ModulePtr> layers;
    layers.push_back(
        nn::Conv2d(1, 4, 3, nn::Conv2dOpts{.stride = 2, .pad = 1}));
    layers.push_back(nn::ReLU({15, 15, 27}));
    layers.push_back(nn::Flatten());
    layers.push_back(nn::Linear(64, 10));
    return nn::Sequential(std::move(layers));
}

/**
 * Self-keyed closed loop: one image at a time through Session::encrypt ->
 * run_encrypted -> decrypt, for `seconds` of measured time.
 */
int
run_closed_loop(const Args& a, Report& r, Tracer& tr)
{
    const auto t_start = Clock::now();
    const bool cnn = a.workload == "cnn-relu-boot";
    SessionOptions so;
    so.params = cnn ? ckks::CkksParams::bootstrap_toy(8)
                    : ckks::CkksParams::network(u64(1) << 12, 8);
    so.l_eff = cnn ? 8 : 6;
    so.seed = splitmix64(a.key_seed);
    so.exec_config = one_thread();

    // ---- set-up: context, compile, prepared program, keygen ----
    const int s_setup = tr.begin("setup", 0);
    double context_s = 0, compile_s = 0, prepare_s = 0, keygen_s = 0;
    auto t0 = Clock::now();
    std::unique_ptr<Session> session;
    {
        Scope s(tr, "ckks.context", 0, s_setup);
        session = std::make_unique<Session>(so);
    }
    context_s = seconds_since(t0);
    nn::ModulePtr module;
    std::optional<nn::Network> lola;
    t0 = Clock::now();
    {
        Scope s(tr, "compiler.compile", 0, s_setup);
        if (cnn) {
            // Fixed weights: the network is part of the workload, not an
            // input, so it must not change with the seed.
            module = make_relu_cnn();
            module->initialize(kCnnWeightSeed);
            session->compile(*module, 1, 8, 8, "cnn_relu");
        } else {
            lola = nn::make_model("lola");
            session->compile(*lola);
        }
    }
    compile_s = seconds_since(t0);
    t0 = Clock::now();
    {
        Scope s(tr, "executor.prepare", 0, s_setup);
        (void)session->prepared();
    }
    prepare_s = seconds_since(t0);
    t0 = Clock::now();
    {
        Scope s(tr, "ckks.keygen", 0, s_setup);
        (void)session->executor();
    }
    keygen_s = seconds_since(t0);
    const double setup_s = seconds_since(t_start);
    tr.end(s_setup);

    const nn::Network& net = cnn ? session->network() : *lola;
    const core::CompiledNetwork& cn = session->compiled();
    const core::GaloisRequirements galois =
        core::required_galois(cn, session->context());

    r.num("setup_s", setup_s);
    r.num("setup.context_s", context_s);
    r.num("compiler.compile_s", compile_s);
    r.num("setup.prepare_s", prepare_s);
    r.num("ckks.keygen_s", keygen_s);
    r.num("compiler.rotations", static_cast<double>(cn.total_rotations));
    r.num("compiler.bootstraps", static_cast<double>(cn.num_bootstraps));
    r.num("ckks.galois_keys",
          static_cast<double>(galois.requests.size()) +
              (galois.conjugation ? 1.0 : 0.0));
    if (a.setup_only) return 0;

    const std::size_t in_size = cn.input_shape.size();

    // One untimed warm-up image fills the arena and lazy caches.
    {
        const std::vector<double> x = make_image(a.image_seed, 0, in_size);
        (void)session->decrypt(
            session->run_encrypted(session->encrypt(x)).outputs);
    }

    Samples smp;
    std::vector<double> enc_ms, exe_ms, dec_ms, lin_ms, act_ms;
    const auto before = registry_snapshot();
    const auto loop_t0 = Clock::now();
    u64 index = 1;
    // At least kMinSamples images, so the tail percentile (10 samples
    // beyond it) always sits above the median of the same samples.
    while (seconds_since(loop_t0) < a.seconds ||
           (smp.attempted < kMinSamples &&
            seconds_since(loop_t0) < 3 * a.seconds)) {
        const std::vector<double> x =
            make_image(a.image_seed, index, in_size);
        const i64 id = static_cast<i64>(index);
        ++index;
        const auto img_t0 = Clock::now();
        std::vector<double> got;
        core::EncryptedResult res;
        try {
            Scope img(tr, "image", id);
            auto t = Clock::now();
            std::vector<ckks::Ciphertext> cts;
            {
                Scope s(tr, "client.encrypt", id, img.id());
                cts = session->encrypt(x);
            }
            enc_ms.push_back(1e3 * seconds_since(t));
            t = Clock::now();
            {
                Scope s(tr, "executor.execute", id, img.id());
                res = session->run_encrypted(cts);
            }
            exe_ms.push_back(1e3 * seconds_since(t));
            t = Clock::now();
            {
                Scope s(tr, "client.decrypt", id, img.id());
                got = session->decrypt(res.outputs);
            }
            dec_ms.push_back(1e3 * seconds_since(t));
        } catch (const std::exception& e) {
            std::fprintf(stderr, "image %lld failed: %s\n",
                         static_cast<long long>(id), e.what());
            ++smp.attempted;
            ++smp.failed;
            continue;
        }
        const double lat_ms = 1e3 * seconds_since(img_t0);
        Check c;
        {
            Scope s(tr, "check.cleartext", id);
            c = check_output(got, net.forward(x));
        }
        smp.add(lat_ms, c);

        // Linear vs everything else, from the executor's own per-layer
        // split (bootstraps are charged to the layer they precede).
        double lin = 0.0, other = 0.0;
        for (const core::LayerTiming& lt : res.layer_times) {
            const bool linear =
                lt.layer_id >= 0 && lt.layer_id < net.num_layers() &&
                (net.layer(lt.layer_id).kind == nn::LayerKind::kConv2d ||
                 net.layer(lt.layer_id).kind == nn::LayerKind::kLinear ||
                 net.layer(lt.layer_id).kind == nn::LayerKind::kAvgPool2d ||
                 net.layer(lt.layer_id).kind == nn::LayerKind::kBatchNorm2d);
            (linear ? lin : other) += lt.seconds;
        }
        lin_ms.push_back(1e3 * lin);
        act_ms.push_back(1e3 * other);
    }
    const double measured_s = seconds_since(loop_t0);
    const auto after = registry_snapshot();
    r.num("peak_rss_mb", peak_rss_mb());
    const double images = static_cast<double>(smp.latency_ms.size());

    smp.write(r);
    r.num("measured_s", measured_s);
    r.num("images_per_s", images / measured_s);
    r.arr("ckks.encrypt_ms", enc_ms);
    r.arr("executor.execute_ms", exe_ms);
    r.arr("ckks.decrypt_ms", dec_ms);
    r.arr("executor.layer_linear_ms", lin_ms);
    r.arr("executor.layer_other_ms", act_ms);
    r.num("cost_model.modeled_ms", 1e3 * cn.modeled_latency);
    write_op_counts(r, before, after, images);

    // The client's upload: a fresh ServeClient's key bundle at the same
    // parameters (the self-keyed executor never serializes its keys).
    {
        serve::ServeClient client(cn, session->context(),
                                  splitmix64(a.key_seed + 1));
        r.num("key_bundle_bytes",
              static_cast<double>(client.key_bundle().size()));
    }

    // Traced runs also time the bootstrap circuit on its own, at the
    // workload's parameters, through the public Bootstrapper.
    if (tr.enabled() && cnn) {
        const ckks::Context& ctx = session->context();
        const ckks::Encoder encoder(ctx);
        ckks::KeyGenerator keygen(ctx, splitmix64(a.key_seed + 2));
        const ckks::PublicKey pk = keygen.make_public_key();
        const ckks::KswitchKey relin = keygen.make_relin_key();
        const ckks::Bootstrapper boot(ctx, encoder, so.l_eff);
        const std::vector<ckks::GaloisKeyRequest> req =
            boot.galois_requests();
        const ckks::GaloisKeys gk = keygen.make_galois_keys(
            std::span<const ckks::GaloisKeyRequest>(req), true,
            boot.conjugation_level());
        ckks::Encryptor enc(ctx, pk);
        ckks::Evaluator eval(ctx, encoder);
        eval.set_relin_key(&relin);
        eval.set_galois_keys(&gk);
        const std::vector<double> x =
            make_image(a.image_seed, 1u << 20, ctx.slot_count());
        const ckks::Ciphertext ct =
            enc.encrypt(encoder.encode(x, 0, ctx.scale()));
        std::vector<double> total, cts, evm, stc;
        for (int i = 0; i < 3; ++i) {
            ckks::BootstrapStats st{};
            const auto t = Clock::now();
            {
                Scope s(tr, "bootstrap.direct", i);
                (void)boot.bootstrap(eval, ct, &st);
            }
            total.push_back(1e3 * seconds_since(t));
            cts.push_back(1e3 * st.coeff_to_slot_s);
            evm.push_back(1e3 * st.eval_mod_s);
            stc.push_back(1e3 * st.slot_to_coeff_s);
        }
        r.num("bootstrap.ms", median(total));
        r.num("bootstrap.cts_ms", median(cts));
        r.num("bootstrap.eval_mod_ms", median(evm));
        r.num("bootstrap.stc_ms", median(stc));
    }
    return 0;
}

// ------------------------------------------------------------ serving

/** One schedule entry of the open-loop phase (written by run.py). */
struct Event {
    double t_s = 0.0;  ///< offset from the phase start
    int rank = 0;      ///< Zipf rank = session slot
    bool replace = false;
};

/**
 * The open-loop schedule file: a header line
 * "sessions <n> phase_a_s <seconds> slices <k>", then one
 * "<t_s> <rank> <replace>" line per arrival.
 */
struct Schedule {
    int sessions = 0;
    double phase_a_s = 0.0;  ///< open-loop time, over all slices
    int slices = 1;          ///< open-loop slices between closed-loop ones
    std::vector<Event> events;
};

Schedule
read_schedule(const std::string& path)
{
    std::ifstream is(path);
    ORION_CHECK(is.good(), "cannot read schedule " << path);
    Schedule s;
    std::string k1, k2, k3;
    is >> k1 >> s.sessions >> k2 >> s.phase_a_s >> k3 >> s.slices;
    ORION_CHECK(k1 == "sessions" && k2 == "phase_a_s" && k3 == "slices" &&
                    s.sessions >= 3 && s.slices >= 1,
                "bad schedule header in " << path);
    Event e;
    int kind = 0;
    while (is >> e.t_s >> e.rank >> kind) {
        e.replace = kind != 0;
        s.events.push_back(e);
    }
    return s;
}

/** One data owner: its keys, its connection, and its Zipf slot. */
struct Slot {
    std::mutex mu;  ///< one outstanding request per connection
    std::unique_ptr<serve::ServeClient> crypto;
    std::unique_ptr<net::NetClient> conn;
    u64 token = 0;
    std::atomic<u64> last_used{0};
};

int
run_serve(const Args& a, Report& r, Tracer& tr)
{
    const Schedule sched = read_schedule(a.schedule);
    const int sessions = sched.sessions;
    const auto t_start = Clock::now();

    // ---- set-up part 1: context, compile, prepared program, server ----
    const int s_setup = tr.begin("setup", 0);
    auto t0 = Clock::now();
    std::unique_ptr<ckks::Context> ctx;
    {
        Scope s(tr, "ckks.context", 0, s_setup);
        ctx = std::make_unique<ckks::Context>(ckks::CkksParams::toy());
    }
    const double context_s = seconds_since(t0);
    const nn::Network net = nn::make_model("micro");
    core::CompiledNetwork cn;
    t0 = Clock::now();
    {
        Scope s(tr, "compiler.compile", 0, s_setup);
        core::CompileOptions opt;
        opt.slots = ctx->slot_count();
        opt.l_eff = 4;
        opt.cost = core::CostModel::for_params(
            ctx->degree(), ctx->params().digit_size,
            ctx->params().digit_size, 3);
        cn = core::compile(net, opt);
    }
    const double compile_s = seconds_since(t0);
    std::shared_ptr<const core::PreparedProgram> prepared;
    t0 = Clock::now();
    {
        Scope s(tr, "executor.prepare", 0, s_setup);
        prepared = std::make_shared<const core::PreparedProgram>(cn, *ctx);
    }
    const double prepare_s = seconds_since(t0);
    const double part1_s = seconds_since(t_start);
    tr.end(s_setup);

    // ---- load-generator input (not set-up): the first sessions' keys.
    // A set-up-only run registers one bundle under every token: the
    // server's registration work is the same, the keygen is skipped.
    std::vector<std::unique_ptr<serve::ServeClient>> pregen;
    std::vector<double> client_keygen_ms;
    for (int i = 0; i < (a.setup_only ? 1 : sessions); ++i) {
        const auto t = Clock::now();
        pregen.push_back(std::make_unique<serve::ServeClient>(
            cn, *ctx, splitmix64(a.key_seed + static_cast<u64>(i))));
        client_keygen_ms.push_back(1e3 * seconds_since(t));
    }
    const ckks::serial::Bytes bundle0 = pregen[0]->key_bundle();
    const serve::KeyBundle decoded = serve::decode_key_bundle(bundle0, *ctx);
    const std::size_t expanded = decoded.relin.byte_size() +
                                 decoded.galois.byte_size();
    // The key cache holds about a third of the sessions.
    const std::size_t cache_bytes =
        static_cast<std::size_t>(sessions / 3) * expanded;
    const int cache_mb =
        static_cast<int>((cache_bytes + (1u << 20) - 1) >> 20);
    const std::string spill =
        std::filesystem::path(a.out).parent_path().string() + "/spill-" +
        std::to_string(static_cast<long long>(::getpid()));

    // ---- set-up part 2: server + endpoint start, first registrations ----
    t0 = Clock::now();
    const int s_setup2 = tr.begin("setup", 1);
    serve::ServeOptions sopts;
    sopts.max_inflight = 2;
    sopts.queue_capacity = 64;
    sopts.threads_per_request = 1;
    sopts.key_cache_mb = cache_mb;
    sopts.key_spill_dir = spill;
    auto server = std::make_unique<serve::InferenceServer>(cn, *ctx, sopts,
                                                           prepared);
    auto endpoint = std::make_unique<net::ServeEndpoint>(*server,
                                                         net::Listener(0));
    const int port = endpoint->port();
    net::ClientOptions copts;
    copts.max_attempts = 20;
    copts.backoff_base_s = 0.01;
    copts.backoff_cap_s = 0.2;
    std::vector<std::unique_ptr<Slot>> slots;
    std::vector<double> register_ms;
    for (int i = 0; i < sessions; ++i) {
        auto slot = std::make_unique<Slot>();
        if (!a.setup_only) slot->crypto = std::move(pregen[i]);
        slot->token = splitmix64(a.key_seed ^ static_cast<u64>(i + 1)) | 1;
        const auto t = Clock::now();
        {
            Scope s(tr, "net.register", i, s_setup2);
            slot->conn = std::make_unique<net::NetClient>(
                a.setup_only ? *pregen[0] : *slot->crypto, "127.0.0.1",
                port, slot->token, copts);
        }
        register_ms.push_back(1e3 * seconds_since(t));
        slots.push_back(std::move(slot));
    }
    tr.end(s_setup2);
    const double setup_s = part1_s + seconds_since(t0);

    r.num("setup_s", setup_s);
    r.num("setup.context_s", context_s);
    r.num("compiler.compile_s", compile_s);
    r.num("setup.prepare_s", prepare_s);
    r.num("ckks.keygen_s", 1e-3 * median(client_keygen_ms));
    r.num("compiler.rotations", static_cast<double>(cn.total_rotations));
    r.num("compiler.bootstraps", static_cast<double>(cn.num_bootstraps));
    const core::GaloisRequirements galois = core::required_galois(cn, *ctx);
    r.num("ckks.galois_keys",
          static_cast<double>(galois.requests.size()) +
              (galois.conjugation ? 1.0 : 0.0));
    r.num("key_bundle_bytes", static_cast<double>(bundle0.size()));
    r.num("serve.key_cache_mb", cache_mb);
    r.num("cost_model.modeled_ms", 1e3 * cn.modeled_latency);

    auto shutdown = [&] {
        for (auto& s : slots) {
            if (s->conn) s->conn->close();
        }
        endpoint->stop();
        endpoint.reset();
        server.reset();
        std::error_code ec;
        std::filesystem::remove_all(spill, ec);
    };
    if (a.setup_only) {
        shutdown();
        return 0;
    }

    const std::size_t in_size = cn.input_shape.size();
    std::mutex mu;  // guards everything below
    Samples smp;
    std::vector<double> queue_ms, exec_ms, dec_ms, enc_ms, lateness_ms,
        session_wait_ms;
    std::vector<i64> event_of;  // Samples index -> schedule event
    std::vector<std::vector<double>> outputs;
    std::vector<double> replace_ms;
    u64 register_failed = 0;

    /** One inference on `slot` (held by the caller); throws on failure. */
    auto infer_on = [&](Slot& slot, u64 image, i64 id, int parent,
                        Clock::time_point due, std::vector<double>& got,
                        serve::Response& resp, double& lat_s) {
        ORION_CHECK(slot.conn != nullptr, "session lost its connection");
        const std::vector<double> x = make_image(a.image_seed, image, in_size);
        ckks::serial::Bytes raw;
        {
            Scope s(tr, "net.infer_raw", id, parent);
            raw = slot.conn->infer_raw(x);
        }
        const auto t_dec = Clock::now();
        {
            Scope s(tr, "client.decrypt", id, parent);
            got = slot.crypto->decrypt_response(raw);
        }
        const auto done = Clock::now();
        tr.end(parent);
        lat_s = std::chrono::duration<double>(done - due).count();
        resp = slot.crypto->parse_response(raw);
        std::lock_guard<std::mutex> lock(mu);
        dec_ms.push_back(
            1e3 * std::chrono::duration<double>(done - t_dec).count());
    };

    std::atomic<u64> seq{0};  // last-use order of the sessions
    // NetClient::infer_raw encrypts inside, so the client's encrypt cost is
    // timed on its own: serialized requests from session 0's client.
    for (u64 k = 0; k < 32; ++k) {
        const std::vector<double> x =
            make_image(a.image_seed, 3000000 + k, in_size);
        const auto t = Clock::now();
        {
            Scope s(tr, "client.encrypt", static_cast<i64>(k));
            (void)slots[0]->crypto->make_request(x);
        }
        enc_ms.push_back(1e3 * seconds_since(t));
    }

    // The set-up registrations left ~4 MB of spill file per session in the
    // page cache. Flush them now, so their writeback does not land in the
    // measured phases; the churn's own spills stay in the measurement.
    for (const auto& f : std::filesystem::directory_iterator(spill)) {
        const int fd = ::open(f.path().c_str(), O_RDONLY);
        if (fd >= 0) {
            (void)::fdatasync(fd);
            ::close(fd);
        }
    }

    // Untimed warm-up: one request on each session the cache can hold,
    // coldest rank first, so phase A starts from the steady state (hot
    // keys resident, arenas filled) instead of reloading every hot
    // session's keys that the first registrations evicted.
    for (int rank = sessions / 3 - 1; rank >= 0; --rank) {
        Slot& slot = *slots[static_cast<std::size_t>(rank)];
        slot.last_used = seq.fetch_add(1) + 1;
        (void)slot.conn->infer(make_image(a.image_seed, 4000000 + rank,
                                          in_size));
    }

    // ---- phase B: closed loop, 4 outstanding on 4 connections. Phases A
    // and B alternate in slices (B A B ... A B), so each phase samples the
    // host across the whole run instead of one window of it.
    const int slices = sched.slices;
    const double phase_a_s = sched.phase_a_s;
    const double b_slice_s = (a.seconds - phase_a_s) / (slices + 1);
    std::atomic<u64> b_done{0};
    std::atomic<u64> b_failed{0};
    std::vector<double> b_err, b_argmax, b_gap;
    double phase_b_wall = 0.0;
    // Kernel counts come from phase B: phase A's registrations also run
    // client keygen and bundle decodes in this process.
    std::map<std::string, double> ops_b;
    auto closed_slice = [&](double secs, u64 slice) {
        const auto before_b = registry_snapshot();
        const auto t0 = Clock::now();
        std::vector<std::thread> loops;
        for (u64 c = 0; c < 4; ++c) {
            loops.emplace_back([&, c] {
                Slot& slot = *slots[c];
                std::lock_guard<std::mutex> slot_lock(slot.mu);
                for (u64 k = 0; seconds_since(t0) < secs; ++k) {
                    const u64 image =
                        10000000 * (slice + 1) + 100000 * c + k;
                    const i64 id = static_cast<i64>(image);
                    std::vector<double> got;
                    serve::Response resp;
                    double lat_s = 0.0;
                    const int req = tr.begin("request", id);
                    try {
                        infer_on(slot, image, id, req, Clock::now(), got, resp,
                                 lat_s);
                    } catch (const std::exception& ex) {
                        std::fprintf(stderr,
                                     "closed-loop request failed: %s\n",
                                     ex.what());
                        b_failed.fetch_add(1);
                        tr.end(req);
                        continue;
                    }
                    const Check chk = check_output(
                        got,
                        net.forward(make_image(a.image_seed, image, in_size)));
                    b_done.fetch_add(1);
                    std::lock_guard<std::mutex> lock(mu);
                    b_err.push_back(chk.max_err);
                    b_argmax.push_back(chk.argmax_match ? 1.0 : 0.0);
                    b_gap.push_back(chk.top2_gap);
                }
            });
        }
        for (std::thread& t : loops) t.join();
        phase_b_wall += seconds_since(t0);
        for (const auto& [k, v] : registry_snapshot()) {
            const auto it = before_b.find(k);
            ops_b[k] += v - (it == before_b.end() ? 0.0 : it->second);
        }
    };
    // ---- phase A: open loop on the schedule, one slice at a time. A
    // slice runs the events in [lo_s, hi_s) of open-loop time.
    const std::vector<Event>& schedule = sched.events;
    std::atomic<std::size_t> next_event{0};
    std::size_t slice_end = 0;
    double slice_lo_s = 0.0;
    Clock::time_point slice_t0;
    auto sender = [&] {
        for (;;) {
            const std::size_t i = next_event.fetch_add(1);
            if (i >= slice_end) return;
            const Event& e = schedule[i];
            const auto due = slice_t0 + std::chrono::duration_cast<
                                            Clock::duration>(
                                            std::chrono::duration<double>(
                                                e.t_s - slice_lo_s));
            std::this_thread::sleep_until(due);
            const auto start = Clock::now();
            const double late_ms =
                1e3 * std::chrono::duration<double>(start - due).count();
            const i64 id = static_cast<i64>(i);
            if (e.replace) {
                // The coldest session (least recently used) leaves; a new
                // data owner generates its keys (client-side work, not
                // timed) and registers in its slot.
                std::unique_ptr<serve::ServeClient> fresh;
                try {
                    fresh = std::make_unique<serve::ServeClient>(
                        cn, *ctx, splitmix64(a.key_seed + 1000000 + i));
                } catch (const std::exception& ex) {
                    std::fprintf(stderr, "keygen failed: %s\n", ex.what());
                    std::lock_guard<std::mutex> lock(mu);
                    ++register_failed;
                    continue;
                }
                Slot* coldest = nullptr;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    u64 best = ~u64(0);
                    for (auto& s : slots) {
                        const u64 lu = s->last_used.load();
                        if (lu < best) {
                            best = lu;
                            coldest = s.get();
                        }
                    }
                }
                std::lock_guard<std::mutex> slot_lock(coldest->mu);
                coldest->last_used = seq.fetch_add(1) + 1;
                const auto t = Clock::now();
                try {
                    Scope s(tr, "net.register", id);
                    coldest->conn->close();
                    coldest->conn.reset();
                    coldest->crypto = std::move(fresh);
                    coldest->token =
                        splitmix64(a.key_seed ^ (1000000 + i)) | 1;
                    coldest->conn = std::make_unique<net::NetClient>(
                        *coldest->crypto, "127.0.0.1", port, coldest->token,
                        copts);
                } catch (const std::exception& ex) {
                    std::fprintf(stderr, "register failed: %s\n", ex.what());
                    std::lock_guard<std::mutex> lock(mu);
                    ++register_failed;
                    continue;
                }
                std::lock_guard<std::mutex> lock(mu);
                replace_ms.push_back(1e3 * seconds_since(t));
                lateness_ms.push_back(late_ms);
                continue;
            }
            Slot& slot = *slots[static_cast<std::size_t>(e.rank)];
            const int req = tr.record("request", id, -1, due, due);
            tr.record("load.lateness", id, req, due, start);
            std::vector<double> got;
            serve::Response resp;
            double lat_s = 0.0;
            bool ok = false;
            {
                const auto t_wait = Clock::now();
                std::unique_lock<std::mutex> slot_lock(slot.mu);
                const double wait_ms = 1e3 * seconds_since(t_wait);
                tr.record("client.session_wait", id, req, t_wait,
                          Clock::now());
                slot.last_used = seq.fetch_add(1) + 1;
                try {
                    infer_on(slot, 1000000 + i, id, req, due, got, resp,
                             lat_s);
                    ok = true;
                } catch (const std::exception& ex) {
                    std::fprintf(stderr, "request %zu failed: %s\n", i,
                                 ex.what());
                    tr.end(req);
                }
                std::lock_guard<std::mutex> lock(mu);
                session_wait_ms.push_back(wait_ms);
            }
            std::lock_guard<std::mutex> lock(mu);
            lateness_ms.push_back(late_ms);
            if (!ok) {
                ++smp.attempted;
                ++smp.failed;
                continue;
            }
            // Cleartext reference is computed after the phase.
            event_of.push_back(id);
            outputs.push_back(std::move(got));
            smp.latency_ms.push_back(1e3 * lat_s);
            queue_ms.push_back(1e3 * resp.queue_wait_s);
            exec_ms.push_back(1e3 * resp.execute_s);
            ++smp.attempted;
        }
    };
    /** Index of the first event at or after `t_s` (events are sorted). */
    auto first_at = [&](double t_s) {
        return static_cast<std::size_t>(
            std::lower_bound(
                schedule.begin(), schedule.end(), t_s,
                [](const Event& e, double t) { return e.t_s < t; }) -
            schedule.begin());
    };
    double phase_a_wall = 0.0;
    for (int k = 0; k < slices; ++k) {
        closed_slice(b_slice_s, static_cast<u64>(k));
        slice_lo_s = phase_a_s * k / slices;
        next_event = first_at(slice_lo_s);
        slice_end = first_at(phase_a_s * (k + 1) / slices);
        slice_t0 = Clock::now() + std::chrono::milliseconds(20);
        std::vector<std::thread> senders;
        for (int t = 0; t < 8; ++t) senders.emplace_back(sender);
        for (std::thread& t : senders) t.join();
        phase_a_wall += seconds_since(slice_t0);
    }
    closed_slice(b_slice_s, static_cast<u64>(slices));

    // Correctness of phase A against the cleartext network (run.py also
    // counts responses over the latency limit as misses).
    for (std::size_t k = 0; k < outputs.size(); ++k) {
        const std::vector<double> x = make_image(
            a.image_seed, 1000000 + static_cast<u64>(event_of[k]), in_size);
        const Check c = check_output(outputs[k], net.forward(x));
        smp.max_err.push_back(c.max_err);
        smp.argmax_match.push_back(c.argmax_match ? 1.0 : 0.0);
        smp.top2_gap.push_back(c.top2_gap);
    }
    const u64 phase_a_requests = outputs.size();
    const serve::ServerStats st = server->stats();
    r.num("peak_rss_mb", peak_rss_mb());
    u64 retries = 0;
    for (auto& s : slots) {
        if (s->conn) retries += s->conn->retry_stats().retries;
    }
    shutdown();

    // Phase B results are checked like phase A's (no latency limit: the
    // closed loop measures capacity, not latency).
    for (std::size_t k = 0; k < b_err.size(); ++k) {
        smp.max_err.push_back(b_err[k]);
        smp.argmax_match.push_back(b_argmax[k]);
        smp.top2_gap.push_back(b_gap[k]);
    }
    smp.attempted += b_done.load() + b_failed.load() +
                     static_cast<u64>(replace_ms.size()) + register_failed;
    smp.failed += b_failed.load() + register_failed;

    smp.write(r);
    r.num("measured_s", phase_a_wall + phase_b_wall);
    r.num("phase_a_s", phase_a_wall);
    r.num("phase_a_requests", static_cast<double>(phase_a_requests));
    r.num("images_per_s", static_cast<double>(b_done.load()) / phase_b_wall);
    r.arr("serve.queue_wait_ms", queue_ms);
    r.arr("serve.execute_ms", exec_ms);
    r.arr("request_id", std::vector<double>(event_of.begin(), event_of.end()));
    r.arr("ckks.decrypt_ms", dec_ms);
    r.arr("ckks.encrypt_ms", enc_ms);
    r.arr("load.lateness_ms", lateness_ms);
    r.arr("client.session_wait_ms", session_wait_ms);
    r.arr("serve.register_ms", replace_ms);
    r.arr("setup.register_ms", register_ms);
    r.num("serve.key_cache_hits", static_cast<double>(st.key_cache_hits));
    r.num("serve.key_cache_misses", static_cast<double>(st.key_cache_misses));
    r.num("serve.key_cache_evictions",
          static_cast<double>(st.key_cache_evictions));
    r.num("serve.rejected", static_cast<double>(st.rejected));
    r.num("serve.failed", static_cast<double>(st.failed));
    r.num("net.retries", static_cast<double>(retries));
    write_op_counts(r, {}, ops_b, static_cast<double>(b_done.load()));
    return 0;
}

Args
parse_args(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto next = [&]() -> std::string {
            ORION_CHECK(i + 1 < argc, "missing value for " << k);
            return argv[++i];
        };
        if (k == "--workload") a.workload = next();
        else if (k == "--seconds") a.seconds = std::stod(next());
        else if (k == "--trace") a.trace = next() != "0";
        else if (k == "--setup-only") a.setup_only = true;
        else if (k == "--image-seed") a.image_seed = std::stoull(next());
        else if (k == "--key-seed") a.key_seed = std::stoull(next());
        else if (k == "--schedule") a.schedule = next();
        else if (k == "--out") a.out = next();
        else ORION_CHECK(false, "unknown argument " << k);
    }
    ORION_CHECK(!a.out.empty(), "--out is required");
    return a;
}

}  // namespace

int
main(int argc, char** argv)
{
    try {
        const Args a = parse_args(argc, argv);
        core::set_num_threads(1);
        Report r;
        Tracer tr(a.trace);
        r.str("workload", a.workload);
        r.num("host.load_avg_start", load_average());
        const double steal0 = steal_ticks();
        r.num("host.calib_start_s", a.setup_only ? 0.0 : calibration_loop_s());
        int rc = 1;
        if (a.workload == "cnn-relu-boot" || a.workload == "lola-leveled") {
            rc = run_closed_loop(a, r, tr);
        } else if (a.workload == "serve-open-churn") {
            rc = run_serve(a, r, tr);
        } else {
            std::fprintf(stderr, "unknown workload '%s'\n",
                         a.workload.c_str());
            return 2;
        }
        r.num("host.calib_end_s", a.setup_only ? 0.0 : calibration_loop_s());
        r.num("host.steal_ticks", steal_ticks() - steal0);
        r.num("host.load_avg_end", load_average());
        r.num("peak_rss_end_mb", peak_rss_mb());
        r.num("trace.overhead_s", tr.overhead_s());
        r.write(a.out);
        if (tr.enabled()) {
            tr.write(a.out + ".spans.json");
            std::ofstream os(a.out + ".registry.json");
            os << "{";
            const char* sep = "\n";
            for (const auto& [name, value] : registry_snapshot()) {
                os << sep << "\"" << name << "\": "
                   << (std::isfinite(value) ? value : 0.0);
                sep = ",\n";
            }
            os << "\n}\n";
        }
        return rc;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "orion_perfbench: %s\n", e.what());
        return 1;
    }
}

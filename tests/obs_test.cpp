#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/stats.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/taxonomy.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/fleet.h"

namespace lp::obs {
namespace {

// --------------------------------------------------------- histogram --

TEST(Histogram, BucketEdgesAreHalfOpen) {
  Histogram h(0.0, 10.0, 10);  // 10 bins of width 1 over [0, 10)
  h.record(0.0);               // [0, 1)
  h.record(0.999);             // [0, 1)
  h.record(1.0);               // [1, 2): lower edge is inclusive
  h.record(9.999);             // [9, 10)
  h.record(10.0);              // hi is exclusive: overflow
  h.record(-0.001);            // underflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(9), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_DOUBLE_EQ(h.edge(0), 0.0);
  EXPECT_DOUBLE_EQ(h.edge(9), 9.0);
}

TEST(Histogram, EdgeRoundingNeverSkipsPastTheLastBin) {
  // A value just below hi whose float bucket index rounds to buckets()
  // must land in the last interior bin, not out of range.
  Histogram h(0.0, 0.3, 3);  // width 0.1 is not exactly representable
  h.record(0.3 - 1e-16);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, TracksSumMeanMinMax) {
  Histogram h(0.0, 100.0, 10);
  for (const double x : {5.0, 15.0, 25.0}) h.record(x);
  EXPECT_DOUBLE_EQ(h.sum(), 45.0);
  EXPECT_DOUBLE_EQ(h.mean(), 15.0);
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 25.0);
}

TEST(Histogram, PercentileMatchesLinearInterpolationConvention) {
  // With one sample per unit-width bucket the histogram reconstruction
  // is exact, so percentile() must agree with lp::percentile (type 7)
  // on the bucket lower edges.
  Histogram h(0.0, 4.0, 4);
  std::vector<double> samples = {0.0, 1.0, 2.0, 3.0};
  for (const double x : samples) h.record(x);
  // rank = q/100 * (n-1): p50 of {0,1,2,3} is 1.5.
  EXPECT_NEAR(h.percentile(50.0), lp::percentile(samples, 50.0), 0.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  // The top percentile clamps to the observed maximum, as documented.
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 3.0);
}

TEST(Histogram, RejectsInvalidShape) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), lp::ContractError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), lp::ContractError);
}

// ---------------------------------------------------------- registry --

TEST(MetricsRegistry, HandlesAreStableAndCreateOrGet) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x.count");
  reg.counter("y.count").add(7);  // force map growth
  reg.gauge("x.level").set(3.5);
  Counter& a2 = reg.counter("x.count");
  EXPECT_EQ(&a, &a2);
  a.add(2);
  EXPECT_EQ(reg.counter("x.count").value(), 2);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, KindCollisionIsAContractError) {
  MetricsRegistry reg;
  reg.counter("dual");
  EXPECT_THROW(reg.gauge("dual"), lp::ContractError);
  EXPECT_THROW(reg.histogram("dual", 0.0, 1.0, 4), lp::ContractError);
}

TEST(MetricsRegistry, FindDoesNotCreate) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  reg.counter("present").add(1);
  ASSERT_NE(reg.find_counter("present"), nullptr);
  EXPECT_EQ(reg.find_gauge("present"), nullptr);  // wrong kind
  EXPECT_EQ(reg.size(), 1u);
}

TEST(MetricsRegistry, ExportIsSortedAndDeterministic) {
  MetricsRegistry reg;
  reg.counter("zz").add(1);
  reg.gauge("aa").set(2.0);
  reg.histogram("mm", 0.0, 10.0, 2).record(3.0);
  const std::string j1 = reg.to_json();
  const std::string j2 = reg.to_json();
  EXPECT_EQ(j1, j2);
  EXPECT_LT(j1.find("\"aa\""), j1.find("\"mm\""));
  EXPECT_LT(j1.find("\"mm\""), j1.find("\"zz\""));
  const std::string csv = reg.to_csv();
  EXPECT_NE(csv.find("zz,counter,value,1"), std::string::npos);
}

// ---------------------------------------------------------- taxonomy --

TEST(OutcomeCounts, TalliesByOutcomeAndFailureKind) {
  OutcomeCounts c;
  c.add(Outcome::kAdmitted);
  c.add(Outcome::kAdmitted, FailureKind::kNone, /*retries=*/2, /*faults=*/1);
  c.add(Outcome::kDegradedLocal);
  c.add(Outcome::kRecoveredLocal, FailureKind::kTimeout, 1, 1,
        /*breaker_forced_local=*/true);
  c.add(Outcome::kFailed, FailureKind::kServerDown);
  EXPECT_EQ(c.requests(), 5u);
  EXPECT_EQ(c.admitted(), 2u);
  EXPECT_EQ(c.degraded(), 1u);
  EXPECT_EQ(c.recovered(), 1u);
  EXPECT_EQ(c.failed(), 1u);
  EXPECT_EQ(c.retries(), 3u);
  EXPECT_EQ(c.faults(), 2u);
  EXPECT_EQ(c.timeouts(), 1u);
  EXPECT_EQ(c.server_downs(), 1u);
  EXPECT_EQ(c.link_drops(), 0u);
  EXPECT_EQ(c.breaker_forced_local(), 1u);
}

TEST(OutcomeCounts, PublishMirrorsEveryBucketIntoTheRegistry) {
  OutcomeCounts c;
  c.add(Outcome::kRecoveredLocal, FailureKind::kLinkDrop, 1, 1);
  MetricsRegistry reg;
  c.publish(reg, "t");
  EXPECT_EQ(reg.find_counter("t.requests")->value(), 1);
  EXPECT_EQ(reg.find_counter("t.outcome.recovered_local")->value(), 1);
  EXPECT_EQ(reg.find_counter("t.outcome.failed")->value(), 0);
  EXPECT_EQ(reg.find_counter("t.failure.link_drop")->value(), 1);
  EXPECT_EQ(reg.find_counter("t.retries")->value(), 1);
}

// ------------------------------------------------- chrome-trace JSON --

// Minimal recursive-descent JSON well-formedness checker — enough to
// reject unbalanced structure, bad literals and broken string escapes.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    return value() && (skip_ws(), pos_ == s_.size());
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') return ++pos_, true;
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') return ++pos_, true;
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') return ++pos_, true;
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (static_cast<unsigned char>(s_[pos_]) < 0x20) return false;
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i)
            if (++pos_ >= s_.size() ||
                std::isxdigit(static_cast<unsigned char>(s_[pos_])) == 0)
              return false;
        } else if (std::string("\"\\/bfnrt").find(e) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

TEST(JsonChecker, SelfTest) {
  EXPECT_TRUE(JsonChecker("{\"a\": [1, -2.5e3, \"x\\n\"], \"b\": null}")
                  .valid());
  EXPECT_FALSE(JsonChecker("{\"a\": [1,}").valid());
  EXPECT_FALSE(JsonChecker("{\"a\" 1}").valid());
  EXPECT_FALSE(JsonChecker("{\"bad\\q\": 1}").valid());
}

TraceArgs args_pk() { return TraceArgs().arg("p", 7).arg("ok", true); }

TEST(TraceRecorder, SpansNestAndSerializeDeterministically) {
  // Record the same hierarchy twice; the exports must match byte for
  // byte and preserve recording order (parent span around child spans).
  const auto record = [](TraceRecorder& tr) {
    const TrackId client = tr.track("client #0");
    const TrackId fe = tr.track("frontend");
    tr.instant(client, "partition-decision", 100, args_pk());
    tr.span(client, "prefix-exec", 100, 400, TraceArgs().arg("p", 7));
    tr.async_begin(fe, "queue-wait", 1, 450);
    tr.counter(fe, "queue_depth", 450, 1.0);
    tr.async_end(fe, "queue-wait", 1, 900);
    tr.span(fe, "suffix-exec", 900, 1500,
            TraceArgs().arg("batch", 2).arg("exec_ms", 0.6));
    tr.span(client, "request", 100, 1600,
            TraceArgs().arg("outcome", "admitted"));
  };
  TraceRecorder a, b;
  record(a);
  record(b);
  EXPECT_EQ(a.num_events(), 7u);
  EXPECT_EQ(a.num_tracks(), 2u);
  const std::string json = a.to_chrome_json();
  EXPECT_EQ(json, b.to_chrome_json());
  EXPECT_TRUE(JsonChecker(json).valid());
  // The root "request" span contains "prefix-exec" by time containment
  // on the same track, and recording order is preserved in the file.
  EXPECT_LT(json.find("prefix-exec"), json.find("request"));
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
}

TEST(TraceRecorder, FormatsTimestampsAsFixedPointMicroseconds) {
  TraceRecorder tr;
  const TrackId t = tr.track("t");
  tr.span(t, "s", 1234567, 2234567);  // 1234.567 us, dur 1000.000 us
  const std::string json = tr.to_chrome_json();
  EXPECT_NE(json.find("\"ts\": 1234.567"), std::string::npos);
  EXPECT_NE(json.find("\"dur\": 1000.000"), std::string::npos);
}

TEST(TraceRecorder, EscapesNamesIntoValidJson) {
  TraceRecorder tr;
  const TrackId t = tr.track("we\"ird\\track\n");
  tr.instant(t, "ev\tent", 5, TraceArgs().arg("k\"ey", "va\\lue"));
  EXPECT_TRUE(JsonChecker(tr.to_chrome_json()).valid());
}

TEST(TraceRecorder, RejectsNegativeDurationSpans) {
  TraceRecorder tr;
  const TrackId t = tr.track("t");
  EXPECT_THROW(tr.span(t, "s", 10, 9), lp::ContractError);
}

// ------------------------------------------------------------ report --

TEST(Report, SerializesScalarsAndSections) {
  Report r("demo");
  r.set("mode", "smoke");
  r.set("requests", std::size_t{42});
  r.set("ok", true);
  auto& sec = r.section("modes", {"name", "p99_ms"});
  sec.add_row({"fail-stop", 12.5});
  sec.add_row({"retry", 8.25});
  const std::string json = r.to_json();
  EXPECT_TRUE(JsonChecker(json).valid());
  EXPECT_NE(json.find("\"requests\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"retry\""), std::string::npos);
  // Re-requesting a section returns the same table.
  EXPECT_EQ(&r.section("modes", {}), &sec);
  EXPECT_EQ(sec.num_rows(), 2u);
}

TEST(Report, RowWidthMustMatchColumns) {
  Report r("demo");
  auto& sec = r.section("s", {"a", "b"});
  EXPECT_THROW(sec.add_row({1}), lp::ContractError);
}

TEST(Writers, ReportAFullDiskAsFailure) {
  // /dev/full opens fine and fails every write with ENOSPC, which stdio
  // only surfaces when fclose flushes the buffer.
  const std::string full = "/dev/full";
  Report r("lp_full");
  r.set("requests", std::size_t{1});
  EXPECT_FALSE(r.write_json(full));
  MetricsRegistry metrics;
  metrics.counter("c").add();
  EXPECT_FALSE(metrics.write_json(full));
  EXPECT_FALSE(metrics.write_csv(full));
  TraceRecorder trace;
  trace.instant(trace.track("t"), "i", 0);
  EXPECT_FALSE(trace.write_chrome_json(full));
  // write_csv_dir names its own files: route the one it writes to
  // /dev/full.
  const std::string dir = ::testing::TempDir();
  const std::string link = dir + "/lp_full_scalars.csv";
  std::remove(link.c_str());
  ASSERT_EQ(::symlink(full.c_str(), link.c_str()), 0);
  EXPECT_TRUE(r.write_csv_dir(dir).empty());
  std::remove(link.c_str());
}

// -------------------------------------------- end-to-end determinism --

const core::PredictorBundle& bundle() {
  static const core::PredictorBundle b = core::train_default_predictors(1234);
  return b;
}

serve::FleetConfig tiny_fleet(std::uint64_t seed) {
  serve::FleetConfig config;
  config.duration = seconds(8);
  config.warmup = seconds(2);
  config.seed = seed;
  config.frontend.policy = serve::QueuePolicy::kEdf;
  config.frontend.admission_control = true;
  config.frontend.max_batch = 4;
  config.frontend.batch_window = milliseconds(2);
  serve::TenantSpec spec;
  spec.model = "alexnet";
  spec.clients = 3;
  spec.policy = core::Policy::kLoadPart;
  spec.request_gap = milliseconds(10);
  spec.slo_sec = 0.25;
  config.tenants.push_back(spec);
  return config;
}

std::vector<core::InferenceRecord> flatten(const serve::FleetResult& r) {
  std::vector<core::InferenceRecord> out;
  for (const auto& trace : r.clients)
    out.insert(out.end(), trace.records.begin(), trace.records.end());
  return out;
}

void expect_identical_records(const std::vector<core::InferenceRecord>& a,
                              const std::vector<core::InferenceRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].p, b[i].p);
    EXPECT_EQ(a[i].outcome, b[i].outcome);
    EXPECT_EQ(a[i].retries, b[i].retries);
    EXPECT_DOUBLE_EQ(a[i].total_sec, b[i].total_sec);
    EXPECT_DOUBLE_EQ(a[i].k_used, b[i].k_used);
  }
}

TEST(Telemetry, DisabledModeIsBitIdenticalToInstrumentedRun) {
  // The whole point of the null-sink design: attaching telemetry (or not)
  // must never perturb the simulation.
  const auto plain = serve::run_fleet(tiny_fleet(5), bundle());

  Telemetry telemetry(/*tracing=*/true);
  serve::FleetConfig traced_config = tiny_fleet(5);
  traced_config.telemetry = &telemetry;
  const auto traced = serve::run_fleet(traced_config, bundle());

  expect_identical_records(flatten(plain), flatten(traced));
  EXPECT_GT(telemetry.trace()->num_events(), 0u);
  EXPECT_GT(telemetry.metrics().size(), 0u);
}

TEST(Telemetry, SameSeedRunsEmitByteIdenticalTraces) {
  std::string json[2];
  for (int i = 0; i < 2; ++i) {
    Telemetry telemetry(/*tracing=*/true);
    serve::FleetConfig config = tiny_fleet(9);
    config.telemetry = &telemetry;
    (void)serve::run_fleet(config, bundle());
    json[i] = telemetry.trace()->to_chrome_json();
    EXPECT_TRUE(JsonChecker(json[i]).valid());
  }
  EXPECT_EQ(json[0], json[1]);
}

TEST(Telemetry, FleetRunPopulatesTheSharedTaxonomy) {
  Telemetry telemetry(/*tracing=*/false);  // metrics-only mode
  serve::FleetConfig config = tiny_fleet(5);
  config.telemetry = &telemetry;
  const auto result = serve::run_fleet(config, bundle());
  EXPECT_EQ(telemetry.trace(), nullptr);

  const auto& reg = telemetry.metrics();
  const Counter* requests = reg.find_counter("fleet.t0.alexnet.requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(requests->value()),
            result.summarize(0).requests());
  // The client-side tally and the serve-side mirror use the same taxonomy.
  EXPECT_NE(reg.find_counter("core.outcome.admitted"), nullptr);
  EXPECT_NE(reg.find_counter("serve.admitted"), nullptr);
  EXPECT_TRUE(JsonChecker(reg.to_json()).valid());
}

TEST(Telemetry, ServeCountersInTheRegistryEqualTheSnapshot) {
  // The registry export is derived from the frontend's one counters
  // struct, so the two reads can never disagree.
  Telemetry telemetry(/*tracing=*/false);
  serve::FleetConfig config = tiny_fleet(5);
  config.telemetry = &telemetry;
  const auto result = serve::run_fleet(config, bundle());
  const auto& reg = telemetry.metrics();
  auto count = [&](const char* name) {
    const Counter* c = reg.find_counter(std::string("serve.") + name);
    EXPECT_NE(c, nullptr) << name;
    return c == nullptr ? -1 : c->value();
  };
  const serve::LoadSnapshot& s = result.frontend;
  EXPECT_GT(s.admitted, 0u);
  EXPECT_EQ(count("submitted"), std::int64_t(s.submitted));
  EXPECT_EQ(count("admitted"), std::int64_t(s.admitted));
  EXPECT_EQ(count("shed"), std::int64_t(s.shed));
  EXPECT_EQ(count("served"), std::int64_t(s.served));
  EXPECT_EQ(count("dispatches"), std::int64_t(s.dispatches));
  EXPECT_EQ(count("batched_jobs"), std::int64_t(s.batched_jobs));
  EXPECT_EQ(count("failed_jobs"), std::int64_t(s.failed_jobs));
}

}  // namespace
}  // namespace lp::obs

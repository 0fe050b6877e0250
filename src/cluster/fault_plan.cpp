#include "cluster/fault_plan.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "scc/topology.hpp"

namespace scc::cluster {

std::vector<int> domain_chips(const FaultPlan& plan, int domain, int chip_count) {
  std::vector<int> chips;
  if (domain < 0 || plan.chips_per_domain <= 0) return chips;
  const int first = domain * plan.chips_per_domain;
  for (int chip = first; chip < first + plan.chips_per_domain && chip < chip_count; ++chip) {
    if (chip >= 0) chips.push_back(chip);
  }
  return chips;
}

FaultOracle::FaultOracle(FaultPlan plan) : plan_(std::move(plan)) {
  // Every event happens at a finite time no earlier than the run's start,
  // and every duration, period, downtime and horizon is finite: the
  // simulators' clocks only move forward through finite times.
  const auto require_time = [](double seconds, const char* field) {
    SCC_REQUIRE(std::isfinite(seconds) && seconds >= 0.0,
                field << " must be a finite time >= 0, got " << seconds);
  };
  const auto require_finite = [](double value, const char* field) {
    SCC_REQUIRE(std::isfinite(value), field << " must be finite, got " << value);
  };
  SCC_REQUIRE(plan_.crash_rate >= 0.0 && plan_.crash_rate <= 1.0,
              "crash_rate must be in [0,1]");
  SCC_REQUIRE(plan_.job_failure_rate >= 0.0 && plan_.job_failure_rate <= 1.0,
              "job_failure_rate must be in [0,1]");
  require_finite(plan_.crash_horizon_seconds, "crash_horizon_seconds");
  SCC_REQUIRE(plan_.crash_rate == 0.0 || plan_.crash_horizon_seconds > 0.0,
              "stochastic crashes need a positive crash_horizon_seconds");
  SCC_REQUIRE(plan_.chips_per_domain >= 1, "chips_per_domain must be >= 1");
  require_finite(plan_.restart_downtime_seconds, "restart_downtime_seconds");
  SCC_REQUIRE(plan_.restart_downtime_seconds >= 0.0,
              "restart_downtime_seconds must be non-negative");
  require_finite(plan_.restart_jitter_fraction, "restart_jitter_fraction");
  SCC_REQUIRE(plan_.restart_jitter_fraction >= 0.0,
              "restart_jitter_fraction must be non-negative");
  for (const ChipCrash& crash : plan_.chip_crashes) {
    require_time(crash.seconds, "chip_crash seconds");
  }
  for (const ChipRestart& restart : plan_.chip_restarts) {
    require_time(restart.seconds, "chip_restart seconds");
  }
  for (const TileKill& kill : plan_.tile_kills) require_time(kill.seconds, "tile_kill seconds");
  for (const DomainOutage& outage : plan_.domain_outages) {
    require_time(outage.seconds, "domain_outage seconds");
  }
  for (const Brownout& b : plan_.brownouts) {
    require_time(b.start_seconds, "brownout seconds");
    require_finite(b.duration_seconds, "brownout duration_seconds");
    require_finite(b.derate, "brownout derate");
    SCC_REQUIRE(b.derate >= 1.0, "brownout derate must be >= 1");
    SCC_REQUIRE(b.duration_seconds > 0.0, "brownout duration must be positive");
  }
  for (const DomainBrownout& b : plan_.domain_brownouts) {
    require_time(b.start_seconds, "domain_brownout seconds");
    require_finite(b.duration_seconds, "domain_brownout duration_seconds");
    require_finite(b.derate, "domain_brownout derate");
    SCC_REQUIRE(b.derate >= 1.0, "domain brownout derate must be >= 1");
    SCC_REQUIRE(b.duration_seconds > 0.0, "domain brownout duration must be positive");
  }
  for (const ChipFlap& flap : plan_.chip_flaps) {
    require_time(flap.start_seconds, "chip_flap seconds");
    require_finite(flap.period_seconds, "chip_flap period_seconds");
    SCC_REQUIRE(flap.cycles >= 1, "flap cycles must be >= 1");
    SCC_REQUIRE(flap.period_seconds > 0.0, "flap period must be positive");
  }
  SCC_REQUIRE(plan_.sdc_rate >= 0.0 && plan_.sdc_rate <= 1.0,
              "sdc_rate must be in [0,1]");
  SCC_REQUIRE(plan_.sdc_sticky_rate >= 0.0 && plan_.sdc_sticky_rate <= 1.0,
              "sdc_sticky_rate must be in [0,1]");
  for (const BadDram& bad : plan_.bad_dram) {
    SCC_REQUIRE(bad.rate >= 0.0 && bad.rate <= 1.0,
                "bad_dram rate must be in [0,1]");
    SCC_REQUIRE(bad.sticky_rate >= 0.0 && bad.sticky_rate <= 1.0,
                "bad_dram sticky_rate must be in [0,1]");
  }
}

double FaultOracle::uniform(std::uint64_t a, std::uint64_t b, std::uint64_t salt) const {
  Rng rng(site_draw(plan_.seed, a, b, salt));
  return rng.uniform01();
}

std::vector<ChipCrash> FaultOracle::crashes(int chip_count) const {
  // Every scheduled crash: with re-admission a chip can die more than once,
  // so the schedule keeps them all and the simulator drops any that land on
  // a chip that is already dead.
  std::vector<ChipCrash> result;
  for (const ChipCrash& crash : plan_.chip_crashes) {
    if (crash.chip < 0 || crash.chip >= chip_count) continue;
    result.push_back(crash);
  }
  for (const ChipFlap& flap : plan_.chip_flaps) {
    if (flap.chip < 0 || flap.chip >= chip_count) continue;
    for (int cycle = 0; cycle < flap.cycles; ++cycle) {
      result.push_back(ChipCrash{
          flap.chip, flap.start_seconds + static_cast<double>(cycle) * flap.period_seconds});
    }
  }
  for (const DomainOutage& outage : plan_.domain_outages) {
    for (int chip : domain_chips(plan_, outage.domain, chip_count)) {
      result.push_back(ChipCrash{chip, outage.seconds});
    }
  }
  if (plan_.crash_rate > 0.0) {
    for (int chip = 0; chip < chip_count; ++chip) {
      if (uniform(static_cast<std::uint64_t>(chip), 0, /*salt=*/11) >= plan_.crash_rate) {
        continue;
      }
      result.push_back(ChipCrash{
          chip, uniform(static_cast<std::uint64_t>(chip), 1, /*salt=*/12) *
                    plan_.crash_horizon_seconds});
    }
  }
  std::sort(result.begin(), result.end(), [](const ChipCrash& a, const ChipCrash& b) {
    return a.seconds < b.seconds || (a.seconds == b.seconds && a.chip < b.chip);
  });
  return result;
}

std::vector<ChipRestart> FaultOracle::restarts(int chip_count) const {
  std::vector<ChipRestart> result;
  for (const ChipRestart& restart : plan_.chip_restarts) {
    if (restart.chip < 0 || restart.chip >= chip_count) continue;
    result.push_back(restart);
  }
  std::sort(result.begin(), result.end(), [](const ChipRestart& a, const ChipRestart& b) {
    return a.seconds < b.seconds || (a.seconds == b.seconds && a.chip < b.chip);
  });
  return result;
}

std::vector<Brownout> FaultOracle::brownout_windows(int chip_count) const {
  std::vector<Brownout> result;
  for (const Brownout& b : plan_.brownouts) {
    if (b.chip < 0 || b.chip >= chip_count) continue;
    result.push_back(b);
  }
  // A rack-level sag derates every MC of every chip in the domain.
  for (const DomainBrownout& b : plan_.domain_brownouts) {
    for (int chip : domain_chips(plan_, b.domain, chip_count)) {
      for (int mc = 0; mc < chip::kMemoryControllerCount; ++mc) {
        result.push_back(Brownout{chip, mc, b.start_seconds, b.duration_seconds, b.derate});
      }
    }
  }
  return result;
}

double FaultOracle::restart_downtime(int chip, int incarnation) const {
  if (plan_.restart_downtime_seconds <= 0.0) return 0.0;
  const double u = uniform(static_cast<std::uint64_t>(chip),
                           static_cast<std::uint64_t>(incarnation), /*salt=*/41);
  return plan_.restart_downtime_seconds * (1.0 + plan_.restart_jitter_fraction * u);
}

bool FaultOracle::job_fails(int chip, std::uint64_t ordinal) const {
  if (plan_.job_failure_rate <= 0.0) return false;
  return uniform(static_cast<std::uint64_t>(chip), ordinal, /*salt=*/21) <
         plan_.job_failure_rate;
}

double FaultOracle::jitter(int request_id, int attempt) const {
  return uniform(static_cast<std::uint64_t>(request_id),
                 static_cast<std::uint64_t>(attempt), /*salt=*/31);
}

integrity::SdcPlan FaultOracle::chip_sdc(int chip) const {
  integrity::SdcPlan sdc;
  // Per-chip seed off the plan seed: chips draw independent corruption
  // streams, and the schedule is deterministic per (seed, chip, job site).
  sdc.seed = plan_.seed ^ ((static_cast<std::uint64_t>(chip) + 1) * 0x9e3779b97f4a7c15ULL);
  sdc.rate = plan_.sdc_rate;
  sdc.sticky_rate = plan_.sdc_sticky_rate;
  for (const BadDram& bad : plan_.bad_dram) {
    if (bad.chip != chip) continue;
    sdc.rate = std::min(1.0, sdc.rate + bad.rate);
    sdc.sticky_rate = std::min(1.0, sdc.sticky_rate + bad.sticky_rate);
  }
  return sdc;
}

namespace {

double num_or(const obs::Json& object, const std::string& key, double fallback) {
  const obs::Json* value = object.find(key);
  if (value == nullptr) return fallback;
  SCC_REQUIRE(value->is_number(), "fault plan field '" + key + "' must be a number");
  return value->as_double();
}

/// An integer that fits int: a wider one is rejected, never narrowed.
bool fits_int(const obs::Json& value) {
  return value.is_int() && value.as_int() >= std::numeric_limits<int>::min() &&
         value.as_int() <= std::numeric_limits<int>::max();
}

int int_or(const obs::Json& object, const std::string& key, int fallback) {
  const obs::Json* value = object.find(key);
  if (value == nullptr) return fallback;
  SCC_REQUIRE(fits_int(*value), "fault plan field '" + key + "' must be an int-range integer");
  return static_cast<int>(value->as_int());
}

double required_num(const obs::Json& object, const std::string& key, const std::string& kind) {
  const obs::Json* value = object.find(key);
  SCC_REQUIRE(value != nullptr && value->is_number(),
              "fault plan event '" + kind + "' needs numeric field '" + key + "'");
  return value->as_double();
}

int required_int(const obs::Json& object, const std::string& key, const std::string& kind) {
  const obs::Json* value = object.find(key);
  SCC_REQUIRE(value != nullptr && fits_int(*value),
              "fault plan event '" + kind + "' needs int-range integer field '" + key + "'");
  return static_cast<int>(value->as_int());
}

}  // namespace

FaultPlan parse_fault_plan_json(const std::string& text) {
  const obs::Json doc = obs::Json::parse(text);
  SCC_REQUIRE(doc.is_object(), "fault plan must be a JSON object");
  FaultPlan plan;
  if (const obs::Json* seed = doc.find("seed"); seed != nullptr) {
    SCC_REQUIRE(seed->is_int() && seed->as_int() >= 0,
                "fault plan 'seed' must be a non-negative integer");
    plan.seed = static_cast<std::uint64_t>(seed->as_int());
  }
  plan.chips_per_domain = int_or(doc, "chips_per_domain", plan.chips_per_domain);
  plan.restart_downtime_seconds =
      num_or(doc, "restart_downtime_seconds", plan.restart_downtime_seconds);
  plan.restart_jitter_fraction =
      num_or(doc, "restart_jitter_fraction", plan.restart_jitter_fraction);
  plan.crash_rate = num_or(doc, "crash_rate", plan.crash_rate);
  plan.crash_horizon_seconds = num_or(doc, "crash_horizon_seconds", plan.crash_horizon_seconds);
  plan.job_failure_rate = num_or(doc, "job_failure_rate", plan.job_failure_rate);
  plan.sdc_rate = num_or(doc, "sdc_rate", plan.sdc_rate);
  plan.sdc_sticky_rate = num_or(doc, "sdc_sticky_rate", plan.sdc_sticky_rate);

  if (const obs::Json* events = doc.find("events"); events != nullptr) {
    SCC_REQUIRE(events->is_array(), "fault plan 'events' must be an array");
    for (std::size_t i = 0; i < events->size(); ++i) {
      const obs::Json& event = events->at(i);
      SCC_REQUIRE(event.is_object(), "fault plan events must be objects");
      const obs::Json* kind = event.find("kind");
      SCC_REQUIRE(kind != nullptr && kind->is_string(),
                  "fault plan events need a string 'kind'");
      const std::string& k = kind->as_string();
      if (k == "chip_crash") {
        plan.chip_crashes.push_back(
            ChipCrash{required_int(event, "chip", k), required_num(event, "seconds", k)});
      } else if (k == "chip_restart") {
        plan.chip_restarts.push_back(
            ChipRestart{required_int(event, "chip", k), required_num(event, "seconds", k)});
      } else if (k == "chip_flap") {
        plan.chip_flaps.push_back(ChipFlap{required_int(event, "chip", k),
                                           required_num(event, "seconds", k),
                                           int_or(event, "cycles", 2),
                                           num_or(event, "period_seconds", 0.1)});
      } else if (k == "tile_kill") {
        plan.tile_kills.push_back(TileKill{required_int(event, "chip", k),
                                           required_int(event, "core", k),
                                           required_num(event, "seconds", k)});
      } else if (k == "brownout") {
        plan.brownouts.push_back(Brownout{required_int(event, "chip", k),
                                          required_int(event, "mc", k),
                                          required_num(event, "seconds", k),
                                          required_num(event, "duration_seconds", k),
                                          num_or(event, "derate", 2.0)});
      } else if (k == "domain_outage") {
        plan.domain_outages.push_back(
            DomainOutage{required_int(event, "domain", k), required_num(event, "seconds", k)});
      } else if (k == "domain_brownout") {
        plan.domain_brownouts.push_back(DomainBrownout{
            required_int(event, "domain", k), required_num(event, "seconds", k),
            required_num(event, "duration_seconds", k), num_or(event, "derate", 2.0)});
      } else if (k == "bad_dram") {
        plan.bad_dram.push_back(BadDram{required_int(event, "chip", k),
                                        required_num(event, "rate", k),
                                        num_or(event, "sticky_rate", 0.9)});
      } else {
        SCC_REQUIRE(false, "unknown fault plan event kind '" + k + "'");
      }
    }
  }
  // Run the oracle's constructor checks so a bad file fails at load time.
  FaultOracle validate(plan);
  return validate.plan();
}

FaultPlan load_fault_plan_file(const std::string& path) {
  std::ifstream in(path);
  SCC_REQUIRE(in.good(), "cannot read fault plan file '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_fault_plan_json(buffer.str());
}

std::string fault_plan_json(const FaultPlan& plan) {
  obs::Json doc = obs::Json::object();
  doc.set("seed", static_cast<std::int64_t>(plan.seed));
  doc.set("chips_per_domain", plan.chips_per_domain);
  doc.set("restart_downtime_seconds", plan.restart_downtime_seconds);
  doc.set("restart_jitter_fraction", plan.restart_jitter_fraction);
  doc.set("crash_rate", plan.crash_rate);
  doc.set("crash_horizon_seconds", plan.crash_horizon_seconds);
  doc.set("job_failure_rate", plan.job_failure_rate);
  doc.set("sdc_rate", plan.sdc_rate);
  doc.set("sdc_sticky_rate", plan.sdc_sticky_rate);
  obs::Json events = obs::Json::array();
  const auto event = [](const char* kind) {
    obs::Json e = obs::Json::object();
    e.set("kind", std::string(kind));
    return e;
  };
  for (const ChipCrash& c : plan.chip_crashes) {
    obs::Json e = event("chip_crash");
    e.set("chip", c.chip);
    e.set("seconds", c.seconds);
    events.push_back(std::move(e));
  }
  for (const ChipRestart& r : plan.chip_restarts) {
    obs::Json e = event("chip_restart");
    e.set("chip", r.chip);
    e.set("seconds", r.seconds);
    events.push_back(std::move(e));
  }
  for (const ChipFlap& f : plan.chip_flaps) {
    obs::Json e = event("chip_flap");
    e.set("chip", f.chip);
    e.set("seconds", f.start_seconds);
    e.set("cycles", f.cycles);
    e.set("period_seconds", f.period_seconds);
    events.push_back(std::move(e));
  }
  for (const TileKill& t : plan.tile_kills) {
    obs::Json e = event("tile_kill");
    e.set("chip", t.chip);
    e.set("core", t.core);
    e.set("seconds", t.seconds);
    events.push_back(std::move(e));
  }
  for (const Brownout& b : plan.brownouts) {
    obs::Json e = event("brownout");
    e.set("chip", b.chip);
    e.set("mc", b.mc);
    e.set("seconds", b.start_seconds);
    e.set("duration_seconds", b.duration_seconds);
    e.set("derate", b.derate);
    events.push_back(std::move(e));
  }
  for (const DomainOutage& o : plan.domain_outages) {
    obs::Json e = event("domain_outage");
    e.set("domain", o.domain);
    e.set("seconds", o.seconds);
    events.push_back(std::move(e));
  }
  for (const DomainBrownout& b : plan.domain_brownouts) {
    obs::Json e = event("domain_brownout");
    e.set("domain", b.domain);
    e.set("seconds", b.start_seconds);
    e.set("duration_seconds", b.duration_seconds);
    e.set("derate", b.derate);
    events.push_back(std::move(e));
  }
  for (const BadDram& bad : plan.bad_dram) {
    obs::Json e = event("bad_dram");
    e.set("chip", bad.chip);
    e.set("rate", bad.rate);
    e.set("sticky_rate", bad.sticky_rate);
    events.push_back(std::move(e));
  }
  doc.set("events", std::move(events));
  return doc.dump(2);
}

}  // namespace scc::cluster

#include "sim/world.h"
#include "dns/domain_name.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <unordered_map>

#include "util/require.h"

namespace seg::sim {
namespace {

class WorldTest : public ::testing::Test {
 protected:
  static const World& world() {
    static World instance{ScenarioConfig::small()};
    return instance;
  }
  // A mutable world for generate_day (background state advances).
  static World& mutable_world() { return const_cast<World&>(world()); }
};

TEST_F(WorldTest, ConstructionBuildsOracles) {
  const auto& w = world();
  EXPECT_EQ(w.isp_count(), 2u);
  EXPECT_GT(w.blacklist().records().size(), 0u);
  EXPECT_GT(w.whitelist().size(), 0u);
  EXPECT_GT(w.sandbox().size(), 0u);
  EXPECT_GT(w.pdns().observation_count(), 0u);
  EXPECT_GT(w.activity().tracked_names(), 0u);
}

// The world's two history stores survive save -> load -> save byte for
// byte: the loader rebuilds the day sets the simulator filled.
TEST_F(WorldTest, HistoryStoresSaveLoadSaveByteIdentically) {
  const auto& w = world();
  std::stringstream activity;
  w.activity().save(activity);
  const auto activity_bytes = activity.str();
  std::ostringstream activity_again;
  dns::DomainActivityIndex::load(activity).save(activity_again);
  EXPECT_EQ(activity_again.str(), activity_bytes);

  std::stringstream pdns;
  w.pdns().save(pdns);
  const auto pdns_bytes = pdns.str();
  std::ostringstream pdns_again;
  dns::PassiveDnsDb::load(pdns).save(pdns_again);
  EXPECT_EQ(pdns_again.str(), pdns_bytes);
}

TEST_F(WorldTest, TraceHasExpectedShape) {
  auto trace = mutable_world().generate_day(0, 0);
  EXPECT_EQ(trace.day, 0);
  EXPECT_GT(trace.records.size(), 1000u);
  std::set<std::string> machines;
  for (const auto& record : trace.records) {
    EXPECT_EQ(record.day, 0);
    EXPECT_FALSE(record.machine.empty());
    EXPECT_TRUE(dns::DomainName::is_valid(record.qname)) << record.qname;
    machines.insert(record.machine);
  }
  // Most of the 400 ISP1 machines appear.
  EXPECT_GT(machines.size(), 300u);
  EXPECT_LE(machines.size(), 400u);
}

TEST_F(WorldTest, TracesAreDeterministicAndOrderIndependent) {
  World w1{ScenarioConfig::small()};
  World w2{ScenarioConfig::small()};
  // Generate in different orders; traces for the same (isp, day) must match.
  const auto a1 = w1.generate_day(0, 1);
  const auto b1 = w1.generate_day(1, 2);
  const auto b2 = w2.generate_day(1, 2);
  const auto a2 = w2.generate_day(0, 1);
  ASSERT_EQ(a1.records.size(), a2.records.size());
  ASSERT_EQ(b1.records.size(), b2.records.size());
  for (std::size_t i = 0; i < a1.records.size(); ++i) {
    EXPECT_EQ(a1.records[i], a2.records[i]);
  }
  for (std::size_t i = 0; i < b1.records.size(); ++i) {
    EXPECT_EQ(b1.records[i], b2.records[i]);
  }
}

TEST_F(WorldTest, DifferentSeedsProduceDifferentWorlds) {
  auto config = ScenarioConfig::small();
  config.seed = 777;
  World other{config};
  EXPECT_NE(other.generate_day(0, 0).records.size(),
            mutable_world().generate_day(0, 0).records.size());
}

TEST_F(WorldTest, InfectedMachinesQueryActiveMalwareDomains) {
  auto& w = mutable_world();
  const auto trace = w.generate_day(0, 0);
  std::size_t malware_queries = 0;
  for (const auto& record : trace.records) {
    if (w.is_true_malware(record.qname)) {
      ++malware_queries;
    }
  }
  EXPECT_GT(malware_queries, 0u);
}

TEST_F(WorldTest, BenignMachinesNeverQueryMalwareDomains) {
  // Machines that query a true malware domain must be the infected ones —
  // the generator enforces intuition (3) by construction. We can verify the
  // contrapositive: the set of machines with malware queries is small.
  auto& w = mutable_world();
  const auto trace = w.generate_day(1, 0);
  std::set<std::string> infected;
  std::set<std::string> all;
  for (const auto& record : trace.records) {
    all.insert(record.machine);
    if (w.is_true_malware(record.qname)) {
      infected.insert(record.machine);
    }
  }
  EXPECT_LT(infected.size(), all.size() / 10);
  EXPECT_GT(infected.size(), 0u);
}

TEST_F(WorldTest, MalwareDomainLifetimesAreConsistent) {
  for (const auto& record : world().blacklist().records()) {
    EXPECT_GE(record.first_active, -ScenarioConfig::small().warmup_days);
    if (record.retired >= 0) {
      EXPECT_GT(record.retired, record.first_active);
    }
    if (record.commercial_listed) {
      EXPECT_GT(record.commercial_day, record.first_active);
    }
    EXPECT_FALSE(record.ips.empty());
    EXPECT_FALSE(record.name.empty());
    EXPECT_TRUE(dns::DomainName::is_valid(record.name));
  }
}

TEST_F(WorldTest, BlacklistViewsGrowOverTime) {
  const auto& blacklist = world().blacklist();
  const auto early = blacklist.as_of(BlacklistKind::kCommercial, 0);
  const auto late = blacklist.as_of(BlacklistKind::kCommercial, 60);
  EXPECT_GT(late.size(), early.size());
}

TEST_F(WorldTest, PublicViewIsSmallerThanCommercial) {
  const auto& blacklist = world().blacklist();
  const auto commercial = blacklist.as_of(BlacklistKind::kCommercial, 30);
  const auto public_view = blacklist.as_of(BlacklistKind::kPublic, 30);
  EXPECT_LT(public_view.size(), commercial.size());
  EXPECT_GT(public_view.size(), 0u);
}

TEST_F(WorldTest, ActiveMalwareDomainsMatchGroundTruth) {
  const auto& w = world();
  const auto active = w.active_malware_domains(10);
  const auto& config = w.config();
  EXPECT_EQ(active.size(), config.families * config.cc_domains_per_family);
  for (const auto& name : active) {
    EXPECT_TRUE(w.is_true_malware(name));
  }
}

TEST_F(WorldTest, WhitelistContainsFreeregNoise) {
  const auto& w = world();
  std::size_t noise = 0;
  // The zones are whitelisted but flagged as noise.
  for (const auto& record : w.blacklist().records()) {
    if (record.under_freereg_zone) {
      ++noise;
    }
  }
  EXPECT_GT(noise, 0u);  // some C&C domains hide under free-reg zones
}

TEST_F(WorldTest, TopWhitelistSubsetIsSmaller) {
  const auto& whitelist = world().whitelist();
  const auto top = whitelist.top(10);
  EXPECT_EQ(top.size(), 10u);
  EXPECT_LT(top.size(), whitelist.size());
}

TEST_F(WorldTest, ActivityIndexKnowsPopularDomainsEveryDay) {
  auto& w = mutable_world();
  w.generate_day(0, 3);  // advance background through day 3
  // Popular apex domains are active every single day of a 14-day window.
  const auto& whitelist_entries = w.whitelist().stable_entries();
  ASSERT_FALSE(whitelist_entries.empty());
  int fully_active = 0;
  int checked = 0;
  for (std::size_t i = 0; i < 50 && i < whitelist_entries.size(); ++i) {
    ++checked;
    if (w.activity().active_days(whitelist_entries[i], -10, 3) == 14) {
      ++fully_active;
    }
  }
  EXPECT_GT(fully_active, checked / 2);
}

TEST_F(WorldTest, PdnsKnowsAbusedIpSpace) {
  // After warmup, at least some abused-pool IPs carry malware associations.
  const auto& w = world();
  std::size_t associated = 0;
  for (const auto& record : w.blacklist().records()) {
    if (!record.commercial_listed || record.commercial_day > -1) {
      continue;
    }
    for (const auto ip : record.ips) {
      if (w.pdns().ip_malware_associated(ip, -w.config().warmup_days, -1)) {
        ++associated;
        break;
      }
    }
  }
  EXPECT_GT(associated, 0u);
}

TEST_F(WorldTest, GenerateDayValidatesArguments) {
  auto& w = mutable_world();
  EXPECT_THROW(w.generate_day(5, 0), util::PreconditionError);
  EXPECT_THROW(w.generate_day(0, -1), util::PreconditionError);
  EXPECT_THROW(w.generate_day(0, World::kHorizonDays + 1), util::PreconditionError);
}

TEST_F(WorldTest, Figure3ShapeMostInfectedMachinesQueryMultipleCcDomains) {
  // The generator must reproduce Figure 3's headline: ~70% of machines
  // that query any malware domain query more than one, and (nearly) none
  // query more than twenty.
  auto& w = mutable_world();
  const auto trace = w.generate_day(1, 1);
  std::unordered_map<std::string, std::set<std::string>> per_machine;
  for (const auto& record : trace.records) {
    if (w.is_true_malware(record.qname)) {
      per_machine[record.machine].insert(record.qname);
    }
  }
  ASSERT_GT(per_machine.size(), 5u);
  std::size_t more_than_one = 0;
  std::size_t more_than_twenty = 0;
  for (const auto& [machine, domains] : per_machine) {
    more_than_one += domains.size() > 1 ? 1 : 0;
    more_than_twenty += domains.size() > 20 ? 1 : 0;
  }
  const double frac = static_cast<double>(more_than_one) /
                      static_cast<double>(per_machine.size());
  EXPECT_GT(frac, 0.5);
  EXPECT_LT(frac, 0.95);
  EXPECT_EQ(more_than_twenty, 0u);
}

}  // namespace
}  // namespace seg::sim

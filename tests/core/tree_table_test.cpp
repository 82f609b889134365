// The directory's interned TreeId table: one id per (registered spec,
// site), computed at finalize and read by spec index everywhere else.

#include <gtest/gtest.h>

#include "core/cluster.hpp"

namespace rbay::core {
namespace {

TreeSpec gpu_tree() {
  return TreeSpec::from_predicate({"GPU", query::CompareOp::Eq, store::AttributeValue{true}});
}

TreeSpec idle_tree() {
  return TreeSpec::from_predicate(
      {"CPU_utilization", query::CompareOp::Less, store::AttributeValue{0.5}});
}

ClusterConfig three_sites() {
  ClusterConfig config;
  config.topology = net::Topology::uniform(3, 0.5, 80.0);
  config.node.scribe.aggregation_interval = util::SimTime::millis(100);
  return config;
}

TEST(TreeTable, EveryEntryIsTheSiteTopic) {
  RBayCluster cluster{three_sites()};
  cluster.add_tree_spec(gpu_tree());
  cluster.add_tree_spec(idle_tree());
  cluster.add_tree_spec(TreeSpec::existence("CPU"));
  cluster.populate(4);
  cluster.finalize();

  const auto& dir = cluster.directory();
  ASSERT_EQ(dir.site_names.size(), 3u);
  for (std::size_t t = 0; t < dir.tree_specs.size(); ++t) {
    EXPECT_EQ(dir.spec_index(dir.tree_specs[t].canonical), t);
    for (net::SiteId s = 0; s < dir.site_names.size(); ++s) {
      EXPECT_EQ(dir.topic(t, s), site_topic(dir.tree_specs[t].canonical, dir.site_names[s]))
          << dir.tree_specs[t].canonical << "@" << dir.site_names[s];
    }
  }
}

TEST(TreeTable, DuplicateCanonicalResolvesToFirstRegistration) {
  Directory dir;
  dir.site_names = {"Virginia", "Tokyo"};
  dir.tree_specs = {gpu_tree(), idle_tree(), gpu_tree()};
  dir.intern_trees();
  EXPECT_EQ(dir.spec_index(gpu_tree().canonical), 0u);
  EXPECT_EQ(dir.spec_index(idle_tree().canonical), 1u);
  EXPECT_FALSE(dir.spec_index("GPU=false").has_value());
  EXPECT_EQ(dir.topic(2, 1), dir.topic(0, 1));
}

TEST(TreeTable, CopyOfRegisteredSpecAgreesWithIndexedPath) {
  RBayCluster cluster{three_sites()};
  cluster.add_tree_spec(idle_tree());
  cluster.add_tree_spec(gpu_tree());
  cluster.populate(6);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(cluster.node(i).post("GPU", i % 3 == 0).ok());
  }
  cluster.finalize();

  const TreeSpec copy = gpu_tree();  // equal to, but not, the registered spec
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& node = cluster.node(i);
    EXPECT_EQ(node.topic_of(copy), cluster.directory().topic(1, node.site()));
    EXPECT_EQ(node.subscribed_to(copy), node.subscribed_to(1));
    EXPECT_EQ(node.subscribed_to(copy), i % 3 == 0) << "node " << i;
    EXPECT_FALSE(node.subscribed_to(0));  // nobody posted CPU_utilization
  }
}

TEST(TreeTable, UnregisteredSpecStillGetsTheHashedId) {
  RBayCluster cluster{three_sites()};
  cluster.add_tree_spec(gpu_tree());
  cluster.populate(2);
  const TreeSpec stranger = idle_tree();
  // Before finalize there is no site name yet: the fallback names the site
  // by number.
  EXPECT_EQ(cluster.node(0).topic_of(stranger), site_topic(stranger.canonical, "site0"));
  cluster.finalize();

  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto& node = cluster.node(i);
    const auto& site_name = cluster.directory().site_names[node.site()];
    EXPECT_EQ(node.topic_of(stranger), site_topic(stranger.canonical, site_name));
    EXPECT_FALSE(node.subscribed_to(stranger));
  }
}

TEST(TreeTable, MembershipBitsTrackMonitorChurn) {
  RBayCluster cluster{three_sites()};
  cluster.add_tree_spec(gpu_tree());
  cluster.add_tree_spec(idle_tree());
  cluster.populate(10);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    ASSERT_TRUE(cluster.node(i).post("CPU_utilization", 0.4).ok());
  }
  cluster.finalize();
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.node(i).enable_monitor(
        {{"CPU_utilization", monitor::RandomWalk{0.4, 0.0, 1.0, 0.1}}},
        util::SimTime::seconds(1));
  }

  int joins_seen = 0;
  int leaves_seen = 0;
  std::vector<bool> was_member(cluster.size(), true);
  for (int second = 0; second < 20; ++second) {
    cluster.run_for(util::SimTime::seconds(1));
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      auto& node = cluster.node(i);
      const bool idle = node.attributes().find("CPU_utilization")->value().as_double() < 0.5;
      const bool member = node.subscribed_to(1);
      EXPECT_EQ(member, idle) << "node " << i << " at t=" << second + 1 << "s";
      EXPECT_EQ(member, node.scribe().subscribed(cluster.directory().topic(1, node.site())));
      joins_seen += member && !was_member[i] ? 1 : 0;
      leaves_seen += !member && was_member[i] ? 1 : 0;
      was_member[i] = member;
    }
  }
  // The walk must actually churn membership for the check to mean anything.
  EXPECT_GT(joins_seen, 0);
  EXPECT_GT(leaves_seen, 0);
}

}  // namespace
}  // namespace rbay::core

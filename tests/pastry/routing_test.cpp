#include <gtest/gtest.h>

#include "pastry/test_helpers.hpp"
#include "util/sha1.hpp"

namespace rbay::pastry {
namespace {

using testing::ProbeOverlay;

TEST(Routing, MessageReachesNumericallyClosestNode) {
  ProbeOverlay po{net::Topology::single_site(), 64};
  auto& overlay = po.overlay;
  for (int q = 0; q < 50; ++q) {
    const NodeId key = util::Sha1::hash128("key-" + std::to_string(q));
    const auto from = static_cast<std::size_t>(q) % overlay.size();
    po.route_probe(from, key, q);
  }
  po.engine.run();

  int delivered = 0;
  for (std::size_t i = 0; i < overlay.size(); ++i) {
    for (const auto& d : po.apps[i]->deliveries) {
      ++delivered;
      EXPECT_EQ(overlay.root_of(d.key), i)
          << "query " << d.tag << " delivered to a non-root node";
    }
  }
  EXPECT_EQ(delivered, 50);
}

TEST(AppId, InternsEachNameOnce) {
  const AppId a("app-id-test-one");
  const AppId b(std::string("app-id-test-one"));
  const AppId c("app-id-test-two");
  EXPECT_EQ(a.index(), b.index());
  EXPECT_NE(a.index(), c.index());
  EXPECT_EQ(&a.name(), &b.name());
  EXPECT_EQ(c.name(), "app-id-test-two");
}

TEST(AppId, EnvelopeWireSizeCountsTheName) {
  // Carrying the id instead of the string must not change simulated bytes.
  EXPECT_EQ(RouteEnvelope("rbay.query").wire_size(), 16u + 8u + 10u);
  EXPECT_EQ(DirectEnvelope("scribe").wire_size(), 24u + 6u);
}

/// A second application beside ProbeApp: records direct-message tags.
struct TagRecorder final : PastryApp {
  void deliver(const NodeId& /*key*/, AppMessage& /*msg*/, int /*hops*/) override {}
  void receive(const NodeRef& /*from*/, AppMessage& msg) override {
    tags.push_back(dynamic_cast<testing::ProbeMsg&>(msg).tag);
  }
  std::vector<int> tags;
};

TEST(Routing, DispatchSeparatesAppsOnOneNode) {
  ProbeOverlay po{net::Topology::single_site(), 8};
  TagRecorder other;
  po.overlay.node(3).register_app("other-app", &other);
  auto msg = std::make_unique<testing::ProbeMsg>();
  msg->tag = 7;
  po.overlay.node(0).send_direct(po.overlay.node(3).self(), std::move(msg), "other-app");
  auto probe = std::make_unique<testing::ProbeMsg>();
  probe->tag = 8;
  po.overlay.node(0).send_direct(po.overlay.node(3).self(), std::move(probe),
                                 testing::ProbeApp::kName);
  po.engine.run();
  ASSERT_EQ(other.tags.size(), 1u);
  EXPECT_EQ(other.tags[0], 7);
  ASSERT_EQ(po.apps[3]->receives.size(), 1u);
  EXPECT_EQ(po.apps[3]->receives[0].second, 8);
}

TEST(Routing, SelfRouteDeliversLocallyWithZeroHops) {
  ProbeOverlay po{net::Topology::single_site(), 16};
  const NodeId own = po.overlay.ref(3).id;
  po.route_probe(3, own, 99);
  po.engine.run();
  ASSERT_EQ(po.apps[3]->deliveries.size(), 1u);
  EXPECT_EQ(po.apps[3]->deliveries[0].hops, 0);
}

TEST(Routing, HopCountIsLogarithmic) {
  // Pastry guarantees ⌈log_16 N⌉ hops; with N = 256 that is 2, allow slack
  // for leaf-set shortcuts and the rare case.
  ProbeOverlay po{net::Topology::single_site(), 256};
  for (int q = 0; q < 100; ++q) {
    const NodeId key = util::Sha1::hash128("hopkey-" + std::to_string(q));
    po.route_probe(static_cast<std::size_t>(q * 7) % po.overlay.size(), key, q);
  }
  po.engine.run();
  int total_hops = 0, count = 0;
  for (auto& app : po.apps) {
    for (const auto& d : app->deliveries) {
      total_hops += d.hops;
      ++count;
      EXPECT_LE(d.hops, 6);
    }
  }
  ASSERT_EQ(count, 100);
  EXPECT_LE(static_cast<double>(total_hops) / count, 3.5);
}

TEST(Routing, WorksAcrossEightSites) {
  ProbeOverlay po{net::Topology::ec2_eight_sites(), 8};  // 64 nodes
  for (int q = 0; q < 40; ++q) {
    const NodeId key = util::Sha1::hash128("geo-" + std::to_string(q));
    po.route_probe(static_cast<std::size_t>(q) % po.overlay.size(), key, q);
  }
  po.engine.run();
  int delivered = 0;
  for (std::size_t i = 0; i < po.overlay.size(); ++i) {
    for (const auto& d : po.apps[i]->deliveries) {
      ++delivered;
      EXPECT_EQ(po.overlay.root_of(d.key), i);
    }
  }
  EXPECT_EQ(delivered, 40);
}

TEST(Routing, SiteScopedConvergesWithinOriginSite) {
  ProbeOverlay po{net::Topology::ec2_eight_sites(), 12};
  // Every site routes the SAME key site-scoped; each must converge on the
  // site-local root (the "virtual node" of §III.E), never leaving the site.
  const NodeId key = util::Sha1::hash128("site-scoped-key");
  for (net::SiteId s = 0; s < 8; ++s) {
    const auto members = po.overlay.nodes_in_site(s);
    po.route_probe(members[0], key, static_cast<int>(s), Scope::Site);
  }
  po.engine.run();

  int delivered = 0;
  for (std::size_t i = 0; i < po.overlay.size(); ++i) {
    for (const auto& d : po.apps[i]->deliveries) {
      ++delivered;
      const auto site = po.overlay.node(i).self().site;
      EXPECT_EQ(static_cast<int>(site), d.tag)
          << "site-scoped query escaped its origin site";
      EXPECT_EQ(po.overlay.root_of_in_site(key, site), i)
          << "delivered to a node that is not the site-local root";
    }
  }
  EXPECT_EQ(delivered, 8);
}

TEST(Routing, FailedNodeIsRoutedAround) {
  ProbeOverlay po{net::Topology::single_site(), 64};
  const NodeId key = util::Sha1::hash128("failover-key");
  const auto original_root = po.overlay.root_of(key);
  po.overlay.fail_node(original_root);
  const auto new_root = po.overlay.root_of(key);
  ASSERT_NE(new_root, original_root);

  po.route_probe((original_root + 1) % po.overlay.size(), key, 1);
  po.engine.run();
  ASSERT_EQ(po.apps[new_root]->deliveries.size(), 1u)
      << "message should be delivered at the new root after failure";
}

TEST(Routing, ForwardCountsTrackLoad) {
  ProbeOverlay po{net::Topology::single_site(), 128};
  for (int q = 0; q < 200; ++q) {
    const NodeId key = util::Sha1::hash128("load-" + std::to_string(q));
    po.route_probe(static_cast<std::size_t>(q) % po.overlay.size(), key, q);
  }
  po.engine.run();
  std::uint64_t total_forwards = 0;
  for (std::size_t i = 0; i < po.overlay.size(); ++i) {
    total_forwards += po.overlay.node(i).forward_count();
  }
  EXPECT_GT(total_forwards, 0u);
  // Reset works.
  for (std::size_t i = 0; i < po.overlay.size(); ++i) po.overlay.node(i).reset_forward_count();
  for (std::size_t i = 0; i < po.overlay.size(); ++i) {
    EXPECT_EQ(po.overlay.node(i).forward_count(), 0u);
  }
}

TEST(Routing, NextHopMonotonicallyApproachesKey) {
  // Property: following next_hop() pointers from any node must strictly
  // shrink ring distance to the key and terminate at the true root.
  ProbeOverlay po{net::Topology::single_site(), 100, /*seed=*/7};
  auto& overlay = po.overlay;
  for (int q = 0; q < 30; ++q) {
    const NodeId key = util::Sha1::hash128("walk-" + std::to_string(q));
    std::size_t at = static_cast<std::size_t>(q * 13) % overlay.size();
    int steps = 0;
    for (;;) {
      const auto hop = overlay.node(at).next_hop(key, Scope::Global);
      if (!hop) break;
      const auto next_idx = overlay.index_of(hop->id);
      EXPECT_TRUE(closer_to(key, hop->id, overlay.node(at).self().id))
          << "next hop does not approach the key";
      at = next_idx;
      ASSERT_LT(++steps, 40) << "routing walk did not terminate";
    }
    EXPECT_EQ(at, overlay.root_of(key));
  }
}

// Parameterized sweep: routing correctness holds across overlay sizes.
class RoutingScale : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoutingScale, AllQueriesReachTrueRoot) {
  ProbeOverlay po{net::Topology::single_site(), GetParam(), /*seed=*/GetParam()};
  for (int q = 0; q < 20; ++q) {
    const NodeId key = util::Sha1::hash128("scale-" + std::to_string(q));
    po.route_probe(static_cast<std::size_t>(q) % po.overlay.size(), key, q);
  }
  po.engine.run();
  int delivered = 0;
  for (std::size_t i = 0; i < po.overlay.size(); ++i) {
    for (const auto& d : po.apps[i]->deliveries) {
      ++delivered;
      EXPECT_EQ(po.overlay.root_of(d.key), i);
    }
  }
  EXPECT_EQ(delivered, 20);
}

INSTANTIATE_TEST_SUITE_P(Sizes, RoutingScale, ::testing::Values(2u, 3u, 5u, 17u, 50u, 200u));

}  // namespace
}  // namespace rbay::pastry

// Tests for subscription deregistration (refcounted Unsubscribe): chain
// detachment, stream retirement, resource release, widening protection,
// and correctness of the surviving subscriptions.

#include <gtest/gtest.h>

#include "sharing/system.h"
#include "workload/paper_queries.h"
#include "workload/photon_gen.h"

namespace streamshare {
namespace {

xml::Path P(const char* text) { return xml::Path::Parse(text).value(); }

class UnregisterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sharing::SystemConfig config;
    config.keep_results = true;
    system_ = std::make_unique<sharing::StreamShareSystem>(
        network::Topology::ExtendedExample(), config);
    ASSERT_TRUE(system_
                    ->RegisterStream("photons",
                                     workload::PhotonGenerator::Schema(),
                                     100.0, 4)
                    .ok());
    ASSERT_TRUE(
        system_->SetRange("photons", P("coord/cel/ra"), {0.0, 360.0}).ok());
    ASSERT_TRUE(
        system_->SetRange("photons", P("coord/cel/dec"), {-90.0, 90.0})
            .ok());
    ASSERT_TRUE(system_->SetRange("photons", P("en"), {0.1, 2.4}).ok());
    ASSERT_TRUE(
        system_->SetAvgIncrement("photons", P("det_time"), 0.5).ok());
  }

  double TotalBandwidth() {
    double total = 0.0;
    for (size_t link = 0; link < system_->topology().link_count(); ++link) {
      total += system_->state().UsedBandwidthKbps(static_cast<int>(link));
    }
    return total;
  }

  Status Run(size_t count) {
    workload::PhotonGenConfig config;
    config.hot_regions = {{120.0, 138.0, -49.0, -40.0}};
    config.hot_weights = {2.0};
    workload::PhotonGenerator generator(config);
    std::map<std::string, std::vector<engine::ItemPtr>> items;
    items["photons"] = generator.Generate(count);
    return system_->Run(items);
  }

  std::unique_ptr<sharing::StreamShareSystem> system_;
};

TEST_F(UnregisterTest, ReleasesResourcesAndRetiresStreams) {
  Result<sharing::RegistrationResult> q1 = system_->RegisterQuery(
      workload::kQuery1, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(q1.ok());
  EXPECT_TRUE(system_->IsActive(q1->query_id));
  double used = TotalBandwidth();
  EXPECT_GT(used, 0.0);

  ASSERT_TRUE(system_->Unsubscribe(q1->query_id).ok());
  EXPECT_FALSE(system_->IsActive(q1->query_id));
  EXPECT_NEAR(TotalBandwidth(), 0.0, 1e-9);
  // The derived stream is retired: a fresh identical query cannot reuse
  // it and taps the original instead.
  Result<sharing::RegistrationResult> again = system_->RegisterQuery(
      workload::kQuery1, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->plan.inputs[0].reused_stream, 0);
}

TEST_F(UnregisterTest, DetachedQueriesReceiveNothing) {
  Result<sharing::RegistrationResult> keep = system_->RegisterQuery(
      workload::kQuery2, 7, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(keep.ok());
  Result<sharing::RegistrationResult> drop = system_->RegisterQuery(
      workload::kQuery3, 3, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(drop.ok());
  ASSERT_TRUE(system_->Unsubscribe(drop->query_id).ok());

  ASSERT_TRUE(Run(1500).ok());
  EXPECT_GT(keep->sink->item_count(), 0u);
  EXPECT_EQ(drop->sink->item_count(), 0u);
}

TEST_F(UnregisterTest, SurvivingQueriesUnaffected) {
  Result<sharing::RegistrationResult> q1 = system_->RegisterQuery(
      workload::kQuery1, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(q1.ok());
  Result<sharing::RegistrationResult> q3 = system_->RegisterQuery(
      workload::kQuery3, 3, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(q3.ok());
  // q3 reuses q1's stream, so remove q3 (the leaf) and verify q1 still
  // produces exactly its own results.
  ASSERT_TRUE(system_->Unsubscribe(q3->query_id).ok());
  ASSERT_TRUE(Run(1000).ok());
  EXPECT_GT(q1->sink->item_count(), 0u);
  EXPECT_EQ(q3->sink->item_count(), 0u);
}

TEST_F(UnregisterTest, InvalidIdsRejected) {
  EXPECT_TRUE(system_->Unsubscribe(-1).IsNotFound());
  EXPECT_TRUE(system_->Unsubscribe(99).IsNotFound());
  EXPECT_FALSE(system_->IsActive(0));
  Result<sharing::RegistrationResult> q1 = system_->RegisterQuery(
      workload::kQuery1, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(system_->Unsubscribe(q1->query_id).ok());
  // Double deregistration is rejected.
  EXPECT_TRUE(system_->Unsubscribe(q1->query_id).IsNotFound());
}

TEST_F(UnregisterTest, DoubleUnsubscribeIsNotFoundOnBothPlanes) {
  Result<sharing::RegistrationResult> q1 = system_->RegisterQuery(
      workload::kQuery1, 1, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(system_->Unsubscribe(q1->query_id).ok());

  // Every not-an-active-subscription shape answers NotFound, with a
  // message naming why.
  Status removed = system_->Unsubscribe(q1->query_id);
  EXPECT_TRUE(removed.IsNotFound()) << removed;
  EXPECT_NE(removed.message().find("already unsubscribed"),
            std::string::npos)
      << removed.message();

  Status never = system_->Unsubscribe(777);
  EXPECT_TRUE(never.IsNotFound()) << never;
  EXPECT_NE(never.message().find("never registered"), std::string::npos)
      << never.message();

  // CheckActiveSubscription is the predicate behind it.
  EXPECT_TRUE(system_->CheckActiveSubscription(q1->query_id).IsNotFound());
  EXPECT_TRUE(system_->CheckActiveSubscription(-1).IsNotFound());
}

TEST_F(UnregisterTest, WideningQueriesCannotUnregister) {
  sharing::SystemConfig config;
  config.planner.enable_widening = true;
  system_ = std::make_unique<sharing::StreamShareSystem>(
      network::Topology::ExtendedExample(), config);
  ASSERT_TRUE(system_
                  ->RegisterStream("photons",
                                   workload::PhotonGenerator::Schema(),
                                   100.0, 4)
                  .ok());
  ASSERT_TRUE(
      system_->SetRange("photons", P("coord/cel/ra"), {0.0, 360.0}).ok());
  ASSERT_TRUE(
      system_->SetRange("photons", P("coord/cel/dec"), {-90.0, 90.0}).ok());
  ASSERT_TRUE(
      system_
          ->RegisterQuery(workload::kQuery1, 1,
                          sharing::Strategy::kStreamSharing)
          .ok());
  // An overlapping (non-nested) box widens Q1's stream.
  const char* overlapping =
      "<out> { for $p in stream(\"photons\")/photons/photon "
      "where $p/coord/cel/ra >= 110.0 and $p/coord/cel/ra <= 130.0 "
      "and $p/coord/cel/dec >= -49.0 and $p/coord/cel/dec <= -40.0 "
      "return <b> { $p/coord/cel/ra } { $p/en } </b> } </out>";
  Result<sharing::RegistrationResult> widener = system_->RegisterQuery(
      overlapping, 3, sharing::Strategy::kStreamSharing);
  ASSERT_TRUE(widener.ok());
  ASSERT_TRUE(widener->plan.inputs[0].widening.has_value());
  EXPECT_TRUE(
      system_->Unsubscribe(widener->query_id).IsInvalidArgument());
}

}  // namespace
}  // namespace streamshare

// Content-addressed result cache tests: exact (de)serialization
// round-trips, key stability/version sensitivity, hit-equals-miss
// bit-identity, disk persistence, and recovery from a torn disk entry.

#include "campaign/result_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>

#include "apps/app.hpp"
#include "scenario/scenario.hpp"

namespace alb {
namespace {

using campaign::ResultCache;

apps::AppConfig small_tsp_config() {
  apps::AppConfig cfg = scenario::load("das").base;
  cfg.clusters = 2;
  cfg.procs_per_cluster = 2;
  return cfg;
}

const apps::AppResult& small_tsp_result() {
  static const apps::AppResult r = [] {
    for (const auto& e : apps::registry()) {
      if (e.name == "TSP") return e.run(small_tsp_config());
    }
    return apps::AppResult{};
  }();
  return r;
}

TEST(ResultCacheSerialization, RoundTripsARealRunExactly) {
  const apps::AppResult& r = small_tsp_result();
  ASSERT_GT(r.events, 0u);
  const std::string text = campaign::serialize_result(r);
  const apps::AppResult back = campaign::parse_result(text);
  EXPECT_EQ(back.elapsed, r.elapsed);
  EXPECT_EQ(back.checksum, r.checksum);
  EXPECT_EQ(back.trace_hash, r.trace_hash);
  EXPECT_EQ(back.events, r.events);
  EXPECT_EQ(static_cast<int>(back.status), static_cast<int>(r.status));
  EXPECT_EQ(back.error, r.error);
  // Traffic counters, per kind and combined.
  for (int k = 0; k < net::TrafficStats::kNumKinds; ++k) {
    const auto& a = r.traffic.kind_at(k);
    const auto& b = back.traffic.kind_at(k);
    EXPECT_EQ(a.intra_msgs, b.intra_msgs) << k;
    EXPECT_EQ(a.intra_bytes, b.intra_bytes) << k;
    EXPECT_EQ(a.inter_msgs, b.inter_msgs) << k;
    EXPECT_EQ(a.inter_bytes, b.inter_bytes) << k;
    EXPECT_EQ(a.inter_logical_msgs, b.inter_logical_msgs) << k;
    EXPECT_EQ(a.inter_logical_bytes, b.inter_logical_bytes) << k;
  }
  EXPECT_EQ(back.traffic.combined().flushes, r.traffic.combined().flushes);
  // App metrics (doubles must round-trip bit-exactly via %.17g).
  EXPECT_EQ(back.metrics, r.metrics);
  // Full metrics registry snapshot.
  EXPECT_EQ(back.stats.counters, r.stats.counters);
  EXPECT_EQ(back.stats.gauges, r.stats.gauges);
  ASSERT_EQ(back.stats.histograms.size(), r.stats.histograms.size());
  for (const auto& [name, h] : r.stats.histograms) {
    const auto it = back.stats.histograms.find(name);
    ASSERT_NE(it, back.stats.histograms.end()) << name;
    EXPECT_EQ(it->second.count, h.count) << name;
    EXPECT_EQ(it->second.sum, h.sum) << name;
    EXPECT_EQ(it->second.min, h.min) << name;
    EXPECT_EQ(it->second.max, h.max) << name;
    EXPECT_EQ(it->second.buckets, h.buckets) << name;
  }
  // Serialization of the parsed value is the same bytes: a fixed point.
  EXPECT_EQ(campaign::serialize_result(back), text);
}

TEST(ResultCacheSerialization, HardFailureStatusRoundTrips) {
  apps::AppResult r = small_tsp_result();
  r.status = apps::AppResult::RunStatus::HardFailure;
  r.error = "rpc to cluster 1 exhausted 12 attempts";  // spaces survive
  const apps::AppResult back = campaign::parse_result(campaign::serialize_result(r));
  EXPECT_EQ(static_cast<int>(back.status),
            static_cast<int>(apps::AppResult::RunStatus::HardFailure));
  EXPECT_EQ(back.error, r.error);
}

TEST(ResultCacheSerialization, MalformedTextThrows) {
  EXPECT_THROW((void)campaign::parse_result(""), std::runtime_error);
  EXPECT_THROW((void)campaign::parse_result("albres 2\n"), std::runtime_error);
  EXPECT_THROW((void)campaign::parse_result("albres 1\nelapsed=abc\n"),
               std::runtime_error);
}

TEST(ResultCacheKey, StableAndSensitive) {
  ResultCache a("", "v1");
  const std::string req = scenario::canonical_request("TSP", small_tsp_config());
  const std::string k = a.key(req);
  EXPECT_EQ(k.size(), 16u);  // 64-bit hex address
  EXPECT_EQ(k, a.key(req));
  // Different request -> different key; different binary -> different key.
  apps::AppConfig other = small_tsp_config();
  other.seed = 43;
  EXPECT_NE(k, a.key(scenario::canonical_request("TSP", other)));
  ResultCache b("", "v2");
  EXPECT_NE(k, b.key(req));
}

// The probe run behind every cache key. This pin moves exactly when a
// change moves the rotating sequencer's schedule; moving it retires
// every cached result written before the change.
TEST(ResultCacheKey, SemanticFingerprintIsPinned) {
  EXPECT_EQ(campaign::semantic_fingerprint(), 16936110724905713329ull);
  EXPECT_EQ(campaign::semantic_fingerprint(), campaign::semantic_fingerprint());
}

// Same binary version, same request, but the entry was written under
// another fingerprint (an incremental rebuild that kept the configure-
// time version): a counted miss, never a hit.
TEST(ResultCache, EntryFromAnotherFingerprintIsACountedMiss) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / "alb_cache_fp";
  std::filesystem::remove_all(dir);
  const std::uint64_t other = campaign::semantic_fingerprint() + 1;
  {
    ResultCache writer(dir.string(), "v1", other);
    writer.store(writer.key("fp-req"), small_tsp_result());
  }
  ResultCache reader(dir.string(), "v1");
  EXPECT_FALSE(reader.lookup(reader.key("fp-req")).has_value());
  EXPECT_EQ(reader.stats().misses, 1u);
  EXPECT_EQ(reader.stats().hits, 0u);
  ResultCache same(dir.string(), "v1", other);
  EXPECT_TRUE(same.lookup(same.key("fp-req")).has_value());
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, HitReturnsTheStoredBytes) {
  ResultCache cache("", "v1");
  const std::string key = cache.key("req");
  EXPECT_FALSE(cache.lookup(key).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  const apps::AppResult& r = small_tsp_result();
  cache.store(key, r);
  EXPECT_EQ(cache.stats().stores, 1u);
  const std::string* text = cache.lookup_text(key);
  ASSERT_NE(text, nullptr);
  EXPECT_EQ(*text, campaign::serialize_result(r));
  const auto hit = cache.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->trace_hash, r.trace_hash);
  EXPECT_EQ(hit->elapsed, r.elapsed);
  EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(ResultCache, DiskPersistsAcrossInstances) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "alb_cache_test").string();
  std::filesystem::remove_all(dir);
  const apps::AppResult& r = small_tsp_result();
  std::string key;
  {
    ResultCache writer(dir, "v1");
    key = writer.key("persisted-req");
    writer.store(key, r);
  }
  ResultCache reader(dir, "v1");
  const auto hit = reader.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(reader.stats().hits, 1u);
  EXPECT_EQ(reader.stats().misses, 0u);
  EXPECT_EQ(hit->trace_hash, r.trace_hash);
  EXPECT_EQ(hit->checksum, r.checksum);
  EXPECT_EQ(campaign::serialize_result(*hit), campaign::serialize_result(r));
  std::filesystem::remove_all(dir);
}

// A torn disk entry (the reproduced case: cut inside a traffic line)
// is a counted miss, never a hit or a crash; its file is removed and the
// next store writes a whole entry back.
TEST(ResultCache, TornDiskEntryIsACountedMissAndIsRepaired) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / "alb_cache_torn";
  std::filesystem::remove_all(dir);
  const apps::AppResult& r = small_tsp_result();
  std::string key;
  {
    ResultCache writer(dir.string(), "v1");
    key = writer.key("torn-req");
    writer.store(key, r);
  }
  const std::filesystem::path entry = dir / (key + ".albres");
  const std::string text = campaign::serialize_result(r);
  const std::size_t cut = text.find("traffic.kind=") + std::string("traffic.kind=0 ").size();
  std::filesystem::resize_file(entry, cut);

  ResultCache reader(dir.string(), "v1");
  EXPECT_FALSE(reader.lookup(key).has_value());
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  EXPECT_EQ(reader.stats().hits, 0u);
  EXPECT_FALSE(std::filesystem::exists(entry));
  EXPECT_FALSE(reader.lookup(key).has_value());  // not resurrected from memory
  EXPECT_EQ(reader.stats().corrupt, 1u);

  reader.store(key, r);
  ResultCache again(dir.string(), "v1");
  const auto hit = again.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(campaign::serialize_result(*hit), text);
  EXPECT_EQ(again.stats().corrupt, 0u);
  // The write-then-rename store leaves only the entry itself behind.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(dir),
                          std::filesystem::directory_iterator()),
            1);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, PublishesMetrics) {
  ResultCache cache("", "v1");
  (void)cache.lookup(cache.key("a"));
  cache.store(cache.key("a"), small_tsp_result());
  (void)cache.lookup(cache.key("a"));
  trace::Metrics m;
  cache.publish_metrics(m);
  const trace::MetricsSnapshot snap = m.snapshot();
  EXPECT_EQ(snap.value("campaign/cache.hits"), 1.0);
  EXPECT_EQ(snap.value("campaign/cache.misses"), 1.0);
  EXPECT_EQ(snap.value("campaign/cache.stores"), 1.0);
  EXPECT_EQ(snap.value("campaign/cache.corrupt"), 0.0);
}

}  // namespace
}  // namespace alb

// Content-addressed result cache tests: the stored record is the line
// alb-serve prints, key stability/version sensitivity, hits return the
// stored bytes, disk persistence, and the integrity check that turns a
// torn, altered, outdated or misplaced disk entry into a counted miss.

#include "campaign/result_cache.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "apps/app.hpp"
#include "scenario/scenario.hpp"
#include "sim/time.hpp"

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

/// Reference rendering of alb-serve's output-line tail for `r`: each
/// field by stream insertion, elapsed in seconds at %.9g.
std::string serve_line_tail(const apps::AppResult& r) {
  char elapsed[64];
  std::snprintf(elapsed, sizeof elapsed, "%.9g", sim::to_seconds(r.elapsed));
  std::ostringstream os;
  os << "elapsed_s=" << elapsed << " checksum=" << r.checksum << " trace_hash=" << r.trace_hash
     << " events=" << r.events
     << " status=" << (r.status == apps::AppResult::RunStatus::Ok ? "ok" : "hard_failure");
  return os.str();
}

TEST(ResultFields, MatchesTheServeLineOfARealRun) {
  const apps::AppResult& r = small_tsp_result();
  ASSERT_GT(r.events, 0u);
  ASSERT_EQ(static_cast<int>(r.status), static_cast<int>(apps::AppResult::RunStatus::Ok));
  EXPECT_EQ(campaign::result_fields(r), serve_line_tail(r));
}

TEST(ResultFields, MatchesTheServeLineOfAHardFailure) {
  apps::AppResult r = small_tsp_result();
  r.status = apps::AppResult::RunStatus::HardFailure;
  r.error = "rpc to cluster 1 exhausted 12 attempts";  // not part of the record
  const std::string fields = campaign::result_fields(r);
  EXPECT_EQ(fields, serve_line_tail(r));
  EXPECT_TRUE(fields.ends_with(" status=hard_failure"));
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
  EXPECT_EQ(reader.lookup(reader.key("fp-req")), nullptr);
  EXPECT_EQ(reader.stats().misses, 1u);
  EXPECT_EQ(reader.stats().hits, 0u);
  ResultCache same(dir.string(), "v1", other);
  EXPECT_NE(same.lookup(same.key("fp-req")), nullptr);
  std::filesystem::remove_all(dir);
}

TEST(ResultCache, HitReturnsTheStoredBytes) {
  ResultCache cache("", "v1");
  const std::string key = cache.key("req");
  EXPECT_EQ(cache.lookup(key), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  const apps::AppResult& r = small_tsp_result();
  const std::string& stored = cache.store(key, r);
  EXPECT_EQ(stored, campaign::result_fields(r));
  EXPECT_EQ(cache.stats().stores, 1u);
  const std::string* hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit, &stored);  // the stored record itself, not a copy
  EXPECT_EQ(cache.lookup(key), hit);
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
  const std::string* hit = reader.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(reader.stats().hits, 1u);
  EXPECT_EQ(reader.stats().misses, 0u);
  EXPECT_EQ(reader.stats().corrupt, 0u);
  EXPECT_EQ(*hit, campaign::result_fields(r));
  std::filesystem::remove_all(dir);
}

/// One entry stored on disk under `req`, in a fresh directory.
struct StoredEntry {
  std::filesystem::path dir;
  std::string key;
  std::filesystem::path file;

  StoredEntry(const char* dir_name, const std::string& req)
      : dir(std::filesystem::temp_directory_path() / dir_name) {
    std::filesystem::remove_all(dir);
    ResultCache writer(dir.string(), "v1");
    key = writer.key(req);
    writer.store(key, small_tsp_result());
    file = dir / (key + ".albres");
  }
  ~StoredEntry() { std::filesystem::remove_all(dir); }

  std::string text() const {
    std::ifstream is(file, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
  }
  void write(const std::string& text) const { std::ofstream(file, std::ios::binary) << text; }
};

/// A fresh reader counts the entry as a corrupt miss and removes its file.
void expect_corrupt_miss(const StoredEntry& e) {
  ResultCache reader(e.dir.string(), "v1");
  EXPECT_FALSE(reader.lookup(e.key));
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  EXPECT_EQ(reader.stats().hits, 0u);
  EXPECT_FALSE(std::filesystem::exists(e.file));
}

// A torn disk entry (cut inside the record) is a counted miss, never a
// hit or a crash; its file is removed and the next store writes a whole
// entry back.
TEST(ResultCache, TornDiskEntryIsACountedMissAndIsRepaired) {
  const StoredEntry e("alb_cache_torn", "torn-req");
  const std::string text = e.text();
  std::filesystem::resize_file(e.file, text.find(" trace_hash="));

  ResultCache reader(e.dir.string(), "v1");
  EXPECT_EQ(reader.lookup(e.key), nullptr);
  EXPECT_EQ(reader.stats().corrupt, 1u);
  EXPECT_EQ(reader.stats().misses, 1u);
  EXPECT_EQ(reader.stats().hits, 0u);
  EXPECT_FALSE(std::filesystem::exists(e.file));
  EXPECT_EQ(reader.lookup(e.key), nullptr);  // not resurrected from memory
  EXPECT_EQ(reader.stats().corrupt, 1u);

  reader.store(e.key, small_tsp_result());
  EXPECT_EQ(e.text(), text);
  ResultCache again(e.dir.string(), "v1");
  const std::string* hit = again.lookup(e.key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, campaign::result_fields(small_tsp_result()));
  EXPECT_EQ(again.stats().corrupt, 0u);
  // The write-then-rename store leaves only the entry itself behind.
  EXPECT_EQ(std::distance(std::filesystem::directory_iterator(e.dir),
                          std::filesystem::directory_iterator()),
            1);
}

// Cut right after the first line: every remaining line is whole, so no
// parse of the lines could tell the entry was cut.
TEST(ResultCache, EntryCutAtALineBoundaryIsCorrupt) {
  const StoredEntry e("alb_cache_cut_line", "cut-line-req");
  const std::string text = e.text();
  e.write(text.substr(0, text.find('\n') + 1));
  expect_corrupt_miss(e);
}

// One digit of the record changed to another: same length, still well
// formed, and a different answer.
TEST(ResultCache, EntryWithAFlippedDigitIsCorrupt) {
  const StoredEntry e("alb_cache_flip", "flip-req");
  std::string text = e.text();
  const std::size_t at = text.find_first_of("0123456789", text.find('\n') + 1);
  ASSERT_NE(at, std::string::npos);
  text[at] = text[at] == '9' ? '1' : static_cast<char>(text[at] + 1);
  e.write(text);
  expect_corrupt_miss(e);
}

// A whole, valid entry under the wrong file name answers another request.
TEST(ResultCache, EntryCopiedUnderAnotherKeyIsCorrupt) {
  const StoredEntry e("alb_cache_copied", "copied-req");
  {
    apps::AppResult other = small_tsp_result();
    other.events += 1;
    ResultCache writer(e.dir.string(), "v1");
    const std::string other_key = writer.key("other-req");
    writer.store(other_key, other);
    std::filesystem::copy_file(e.dir / (other_key + ".albres"), e.file,
                               std::filesystem::copy_options::overwrite_existing);
  }
  expect_corrupt_miss(e);
}

// An entry in the previous whole-result format, left behind by a build
// that kept its configure-time version, is re-simulated, not served.
TEST(ResultCache, FormatOneEntryIsCorrupt) {
  const StoredEntry e("alb_cache_format1", "format1-req");
  e.write("albres 1\nelapsed=1000\nstatus=ok\nchecksum=7\ntrace_hash=9\nevents=3\n");
  expect_corrupt_miss(e);
}

TEST(ResultCache, PublishesMetrics) {
  ResultCache cache("", "v1");
  EXPECT_EQ(cache.lookup(cache.key("a")), nullptr);
  cache.store(cache.key("a"), small_tsp_result());
  EXPECT_NE(cache.lookup(cache.key("a")), nullptr);
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

// han::tune::TuneDb — machine signatures, the versioned on-disk format,
// staleness detection, and the warm-start tuning workflow
// (docs/TUNING_SERVICE.md).
#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "autotune/tunedb.hpp"
#include "coll/module.hpp"
#include "coll/runtime.hpp"
#include "han/han.hpp"
#include "json_validator.hpp"
#include "machine/machine.hpp"

namespace han::tune {
namespace {

using coll::Algorithm;
using coll::CollKind;
using core::HanConfig;

HanConfig cfg_of(std::size_t fs, const char* imod, const char* smod,
                 Algorithm alg, std::size_t iseg) {
  HanConfig c;
  c.fs = fs;
  c.imod = imod;
  c.smod = smod;
  c.ibalg = alg;
  c.iralg = alg;
  c.ibs = iseg;
  c.irs = iseg;
  return c;
}

// --- machine signatures --------------------------------------------------

TEST(MachineSignature, DeterministicPerProfile) {
  const MachineSignature a = signature_of(machine::make_aries(8, 4));
  const MachineSignature b = signature_of(machine::make_aries(8, 4));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.key(), "aries.8x4.numa1");
}

TEST(MachineSignature, TopologyChangesTheKey) {
  EXPECT_NE(signature_of(machine::make_aries(8, 4)).key(),
            signature_of(machine::make_aries(8, 2)).key());
  EXPECT_NE(signature_of(machine::make_aries(8, 4)).key(),
            signature_of(machine::make_opath(8, 4)).key());
  EXPECT_EQ(signature_of(machine::with_numa(machine::make_aries(8, 4), 2))
                .key(),
            "aries.8x4.numa2");
}

TEST(MachineSignature, ScalarChangeInvalidatesEveryBand) {
  machine::MachineProfile p = machine::make_aries(8, 4);
  const MachineSignature before = signature_of(p);
  p.net_latency *= 1.5;
  const MachineSignature after = signature_of(p);
  EXPECT_EQ(before.key(), after.key());
  EXPECT_NE(before.scalar_hash, after.scalar_hash);
  for (int b = 0; b < MachineSignature::kBands; ++b) {
    EXPECT_NE(before.band_hash[b], after.band_hash[b]) << "band " << b;
  }
}

TEST(MachineSignature, CurvePerturbationStaysLocalToItsBands) {
  machine::MachineProfile p = machine::make_aries(8, 4);
  const MachineSignature before = signature_of(p);
  // Scale the knots at >= 2MB. The nearest untouched knot sits at 512KB
  // (2^19), so interpolation changes reach down into band 19 and no
  // further.
  machine::scale_net_efficiency(p, /*factor=*/0.9, /*min_bytes=*/2 << 20);
  const MachineSignature after = signature_of(p);
  EXPECT_EQ(before.scalar_hash, after.scalar_hash);
  for (int b = 0; b < 19; ++b) {
    EXPECT_EQ(before.band_hash[b], after.band_hash[b]) << "band " << b;
  }
  for (int b = 19; b < MachineSignature::kBands; ++b) {
    EXPECT_NE(before.band_hash[b], after.band_hash[b]) << "band " << b;
  }
}

TEST(MachineSignature, BandClampsOutOfRangeBuckets) {
  const MachineSignature sig = signature_of(machine::make_aries(4, 2));
  EXPECT_EQ(sig.band(-5), sig.band(0));
  EXPECT_EQ(sig.band(99), sig.band(MachineSignature::kBands - 1));
}

// --- persistence ---------------------------------------------------------

/// A DB with `machines` records whose signatures carry pseudo-random
/// hashes — exercises the full hex round trip, not just friendly values.
TuneDb randomized_db(int machines, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TuneDb db;
  for (int i = 0; i < machines; ++i) {
    MachineSignature sig;
    sig.topo = "fake" + std::to_string(i) + "." + std::to_string(2 + i) +
               "x4.numa1";
    sig.scalar_hash = rng();
    for (int b = 0; b < MachineSignature::kBands; ++b) sig.band_hash[b] = rng();
    LookupTable t;
    t.insert(CollKind::Bcast, 2 + i, 4, 64 << 10,
             cfg_of(64 << 10, "adapt", "sm", Algorithm::Chain, 32 << 10));
    t.insert(CollKind::Allreduce, 2 + i, 4, 4 << 20,
             cfg_of(1 << 20, "libnbc", "solo", Algorithm::Binomial, 64 << 10));
    db.ingest(sig, t);
  }
  return db;
}

TEST(TuneDbFormat, RandomizedRoundTrip) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    const TuneDb db = randomized_db(4, seed);
    const std::string text = db.serialize();
    TuneDb back;
    std::string error;
    ASSERT_TRUE(TuneDb::deserialize(text, &back, &error)) << error;
    EXPECT_EQ(back.serialize(), text) << "seed " << seed;
    EXPECT_EQ(back.record_count(), 4u);
    EXPECT_EQ(back.entry_count(), 8u);
  }
}

TEST(TuneDbFormat, ReingestPreservesStampOrderAcrossReload) {
  TuneDb db = randomized_db(3, 9);
  const std::string text = db.serialize();
  TuneDb back;
  std::string error;
  ASSERT_TRUE(TuneDb::deserialize(text, &back, &error)) << error;
  // gc after a reload keeps the most recently ingested records — the
  // stamp survives the round trip.
  EXPECT_EQ(back.gc(1), 2);
  ASSERT_EQ(back.record_count(), 1u);
  EXPECT_NE(back.find("fake2.4x4.numa1"), nullptr);
}

TEST(TuneDbFormat, RejectsCorruptInput) {
  TuneDb out;
  std::string error;
  EXPECT_FALSE(TuneDb::deserialize("not a tunedb\n", &out, &error));
  EXPECT_FALSE(error.empty());

  const std::string good = randomized_db(1, 3).serialize();

  // Truncated: drop the final "end".
  std::string truncated = good.substr(0, good.rfind("end"));
  error.clear();
  EXPECT_FALSE(TuneDb::deserialize(truncated, &out, &error));
  EXPECT_NE(error.find("line"), std::string::npos) << error;

  // A mangled entry line inside an otherwise-valid block.
  std::string mangled = good;
  const std::string::size_type at = mangled.find("entry ");
  ASSERT_NE(at, std::string::npos);
  mangled.replace(at, 6, "entry! ");
  error.clear();
  EXPECT_FALSE(TuneDb::deserialize(mangled, &out, &error));
  EXPECT_FALSE(error.empty());

  // A size bucket past bucket_of's 63: `1 << bucket` would overflow.
  std::string huge = good;
  std::istringstream fields(huge.substr(at, huge.find('\n', at) - at));
  std::string tag, kind, nodes, ppn, bucket;
  ASSERT_TRUE(fields >> tag >> kind >> nodes >> ppn >> bucket);
  const std::string key = tag + " " + kind + " " + nodes + " " + ppn + " ";
  ASSERT_EQ(huge.compare(at, key.size(), key), 0);
  huge.replace(at + key.size(), bucket.size(), "70");
  error.clear();
  EXPECT_FALSE(TuneDb::deserialize(huge, &out, &error));
  EXPECT_NE(error.find("bad entry key"), std::string::npos) << error;
}

TEST(TuneDbFormat, RejectsNewerVersionLoudly) {
  std::string text = randomized_db(1, 5).serialize();
  const std::string::size_type at = text.find("version 1");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 9, "version 2");
  TuneDb out;
  std::string error;
  EXPECT_FALSE(TuneDb::deserialize(text, &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(TuneDbFormat, FileRoundTripAndMissingFile) {
  const TuneDb db = randomized_db(2, 11);
  const std::string path = ::testing::TempDir() + "tunedb_test.db";
  ASSERT_TRUE(db.save(path));
  const std::optional<TuneDb> loaded = TuneDb::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->serialize(), db.serialize());
  EXPECT_FALSE(TuneDb::load(path + ".does-not-exist").has_value());
  std::remove(path.c_str());
}

TEST(TuneDbFormat, ReportEscapesFileSuppliedMachineKeys) {
  // The machine key comes from the file: a quote or backslash in it must
  // not break the query report's JSON.
  std::string text = randomized_db(1, 19).serialize();
  const std::string plain = "machine fake0.2x4.numa1";
  const std::string::size_type at = text.find(plain);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, plain.size(), "machine aries\"x\\y");
  TuneDb db;
  std::string error;
  ASSERT_TRUE(TuneDb::deserialize(text, &db, &error)) << error;
  ASSERT_NE(db.find("aries\"x\\y"), nullptr);
  const std::string json = db.report_json();
  EXPECT_TRUE(test::JsonValidator::valid(json)) << json;
  EXPECT_NE(json.find("\"aries\\\"x\\\\y\": {"), std::string::npos) << json;
}

// --- invalidation and gc -------------------------------------------------

TEST(TuneDb, InvalidatePerKindAndWholeRecord) {
  TuneDb db = randomized_db(2, 13);
  EXPECT_EQ(db.invalidate("fake0.2x4.numa1", CollKind::Bcast), 1);
  const TuneDb::Record* rec = db.find("fake0.2x4.numa1");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->entries.size(), 1u);  // the allreduce entry survives
  EXPECT_EQ(db.invalidate("fake0.2x4.numa1"), 1);
  EXPECT_EQ(db.find("fake0.2x4.numa1"), nullptr);
  EXPECT_EQ(db.invalidate("no-such-machine"), 0);
  EXPECT_EQ(db.record_count(), 1u);
}

TEST(TuneDb, GcKeepsMostRecentlyIngested) {
  TuneDb db = randomized_db(5, 17);
  EXPECT_EQ(db.gc(2), 3);
  EXPECT_EQ(db.record_count(), 2u);
  EXPECT_NE(db.find("fake3.5x4.numa1"), nullptr);
  EXPECT_NE(db.find("fake4.6x4.numa1"), nullptr);
  EXPECT_EQ(db.gc(2), 0);  // already at the cap
}

// --- warm-start tuning ---------------------------------------------------

struct TuneHarness {
  explicit TuneHarness(machine::MachineProfile profile)
      : world(std::move(profile)),
        rt(world),
        mods(world, rt),
        han(world, rt, mods) {}
  mpi::SimWorld world;
  coll::CollRuntime rt;
  coll::ModuleSet mods;
  core::HanModule han;
};

SearchSpace small_space() {
  SearchSpace s;
  s.fs_sizes = {64 << 10, 1 << 20};
  s.adapt_algs = {Algorithm::Chain};
  s.adapt_inter_segments = {64 << 10};
  return s;
}

TunerOptions small_options() {
  TunerOptions o;
  o.message_sizes = {64 << 10, 4 << 20};
  o.kinds = {CollKind::Bcast, CollKind::Allreduce};
  return o;
}

TEST(WarmTune, ColdPassEqualsPlainTuneThenWarmPassIsFree) {
  const TunerOptions opts = small_options();

  TuneHarness plain(machine::make_aries(2, 2));
  Tuner plain_tuner(plain.world, plain.han, plain.world.world_comm(),
                    small_space());
  const TuneReport cold = plain_tuner.tune(opts);

  TuneDb db;
  TuneHarness first(machine::make_aries(2, 2));
  Tuner first_tuner(first.world, first.han, first.world.world_comm(),
                    small_space());
  const WarmStartReport pass1 = warm_tune(db, first_tuner, opts);
  EXPECT_TRUE(pass1.cold);
  EXPECT_EQ(pass1.reused, 0);
  EXPECT_EQ(pass1.retuned, 4);  // 2 kinds x 2 sizes
  EXPECT_EQ(pass1.table.serialize(), cold.table.serialize());
  EXPECT_DOUBLE_EQ(pass1.tuning_cost, cold.tuning_cost);

  // Second pass on an identical machine: everything reused, zero
  // simulated benchmark cost, and the DB is left byte-identical.
  const std::string db_before = db.serialize();
  TuneHarness second(machine::make_aries(2, 2));
  Tuner second_tuner(second.world, second.han, second.world.world_comm(),
                     small_space());
  const WarmStartReport pass2 = warm_tune(db, second_tuner, opts);
  EXPECT_FALSE(pass2.cold);
  EXPECT_EQ(pass2.reused, 4);
  EXPECT_EQ(pass2.retuned, 0);
  EXPECT_DOUBLE_EQ(pass2.tuning_cost, 0.0);
  EXPECT_TRUE(pass2.retuned_kinds.empty());
  EXPECT_EQ(pass2.table.serialize(), cold.table.serialize());
  EXPECT_EQ(db.serialize(), db_before);
}

TEST(WarmTune, CurvePerturbationForcesAFullRetuneThatMatchesCold) {
  const TunerOptions opts = small_options();

  TuneDb db;
  TuneHarness base(machine::make_aries(2, 2));
  Tuner base_tuner(base.world, base.han, base.world.world_comm(),
                   small_space());
  warm_tune(db, base_tuner, opts);

  // The perturbation lands at >= 2MB, so the 4MB buckets of every kind go
  // stale; a kind re-tunes whole, so both kinds pay again.
  machine::MachineProfile perturbed = machine::make_aries(2, 2);
  machine::scale_net_efficiency(perturbed, 0.8, 2 << 20);

  TuneHarness plain(perturbed);
  Tuner plain_tuner(plain.world, plain.han, plain.world.world_comm(),
                    small_space());
  const TuneReport cold = plain_tuner.tune(opts);

  TuneHarness warm(perturbed);
  Tuner warm_tuner(warm.world, warm.han, warm.world.world_comm(),
                   small_space());
  const WarmStartReport rep = warm_tune(db, warm_tuner, opts);
  EXPECT_FALSE(rep.cold);
  EXPECT_EQ(rep.reused, 0);
  EXPECT_EQ(rep.retuned, 4);
  EXPECT_EQ(rep.retuned_kinds,
            (std::vector<std::string>{"bcast", "allreduce"}));
  EXPECT_EQ(rep.table.serialize(), cold.table.serialize());
  EXPECT_DOUBLE_EQ(rep.tuning_cost, cold.tuning_cost);

  // The DB now stores the perturbed machine's record; both signatures map
  // to the same topo key but only the new one is fresh.
  TuneHarness again(perturbed);
  Tuner again_tuner(again.world, again.han, again.world.world_comm(),
                    small_space());
  const WarmStartReport rep2 = warm_tune(db, again_tuner, opts);
  EXPECT_EQ(rep2.retuned, 0);
  EXPECT_EQ(rep2.reused, 4);
}

TEST(WarmTune, PerturbationBelowTunedSizesReusesEverything) {
  TunerOptions opts = small_options();
  opts.message_sizes = {64 << 10};  // band 16 only

  TuneDb db;
  TuneHarness base(machine::make_aries(2, 2));
  Tuner base_tuner(base.world, base.han, base.world.world_comm(),
                   small_space());
  warm_tune(db, base_tuner, opts);

  // A large-message-only curve change leaves band 16 untouched: the
  // signature still matches for every tuned bucket, nothing re-tunes.
  machine::MachineProfile perturbed = machine::make_aries(2, 2);
  machine::scale_net_efficiency(perturbed, 0.8, 2 << 20);
  TuneHarness warm(perturbed);
  Tuner warm_tuner(warm.world, warm.han, warm.world.world_comm(),
                   small_space());
  const WarmStartReport rep = warm_tune(db, warm_tuner, opts);
  EXPECT_EQ(rep.retuned, 0);
  EXPECT_EQ(rep.reused, 2);  // 2 kinds x 1 size
  EXPECT_DOUBLE_EQ(rep.tuning_cost, 0.0);
}

TEST(WarmTune, InvalidatedKindRetunesAlone) {
  const TunerOptions opts = small_options();

  TuneDb db;
  TuneHarness base(machine::make_aries(2, 2));
  Tuner base_tuner(base.world, base.han, base.world.world_comm(),
                   small_space());
  const WarmStartReport cold = warm_tune(db, base_tuner, opts);

  const std::string key = signature_of(base.world.profile()).key();
  EXPECT_EQ(db.invalidate(key, CollKind::Bcast), 2);

  TuneHarness warm(machine::make_aries(2, 2));
  Tuner warm_tuner(warm.world, warm.han, warm.world.world_comm(),
                   small_space());
  const WarmStartReport rep = warm_tune(db, warm_tuner, opts);
  EXPECT_EQ(rep.retuned, 2);  // bcast's two buckets
  EXPECT_EQ(rep.reused, 2);   // allreduce served from the DB
  EXPECT_EQ(rep.retuned_kinds, std::vector<std::string>{"bcast"});
  EXPECT_LT(rep.tuning_cost, cold.tuning_cost);
  EXPECT_EQ(rep.table.serialize(), cold.table.serialize());
}

}  // namespace
}  // namespace han::tune

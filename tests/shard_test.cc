// The shard-split subsystem: balanced range tiling, bit-exact slicing of
// fp64 and int8 tables, the I2VSHRD1 identity section (round-trip, CRC
// corruption rejection, range-consistency validation), the seed-block /
// request / response wire codecs, and the load-time guards that keep a
// shard slice out of plain serve and a whole model out of shard serve.

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "embedding/model_io.h"
#include "embedding/quantized_store.h"
#include "obs/http_client.h"
#include "obs/http_server.h"
#include "obs/json.h"
#include "serve/influence_service.h"
#include "serve/seed_cache.h"
#include "shard/shard_service.h"
#include "shard/shard_split.h"
#include "shard/wire.h"
#include "util/rng.h"

namespace inf2vec {
namespace shard {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

EmbeddingStore MakeStore(uint32_t num_users, uint32_t dim, uint64_t seed) {
  EmbeddingStore store(num_users, dim);
  Rng rng(seed);
  store.InitUniform(-0.5, 0.5, rng);
  for (UserId u = 0; u < num_users; ++u) {
    store.mutable_source_bias(u) = rng.UniformDouble(-0.2, 0.2);
    store.mutable_target_bias(u) = rng.UniformDouble(-0.2, 0.2);
  }
  return store;
}

ModelMetadata MakeMetadata(uint32_t dim) {
  ModelMetadata metadata;
  metadata.aggregation = "Ave";
  metadata.dim = dim;
  return metadata;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(ComputeShardRangesTest, BalancedContiguousTiling) {
  for (uint32_t total : {1u, 2u, 7u, 64u, 100u, 1000u}) {
    for (uint32_t n : {1u, 2u, 3u, 5u, 7u}) {
      if (n > total) continue;
      const std::vector<ShardRange> ranges = ComputeShardRanges(total, n);
      ASSERT_EQ(ranges.size(), n);
      uint32_t expected_begin = 0;
      for (const ShardRange& range : ranges) {
        EXPECT_EQ(range.begin, expected_begin);
        EXPECT_GT(range.end, range.begin);
        // Balanced: every shard holds floor or ceil of total / n users.
        const uint32_t size = range.end - range.begin;
        EXPECT_GE(size, total / n);
        EXPECT_LE(size, total / n + (total % n == 0 ? 0 : 1));
        expected_begin = range.end;
      }
      EXPECT_EQ(expected_begin, total);
    }
  }
}

TEST(ComputeShardRangesTest, FirstRemainderShardsGetOneExtra) {
  const std::vector<ShardRange> ranges = ComputeShardRanges(10, 3);
  ASSERT_EQ(ranges.size(), 3u);
  EXPECT_EQ(ranges[0].end - ranges[0].begin, 4u);
  EXPECT_EQ(ranges[1].end - ranges[1].begin, 3u);
  EXPECT_EQ(ranges[2].end - ranges[2].begin, 3u);
}

TEST(ModelContentHashTest, SensitiveToEveryPayloadComponent) {
  const EmbeddingStore base = MakeStore(16, 4, 1);
  const uint64_t hash = ComputeModelContentHash(base);
  EXPECT_EQ(ComputeModelContentHash(base), hash);  // deterministic

  EmbeddingStore vec = MakeStore(16, 4, 1);
  vec.Source(7)[2] += 1e-9;
  EXPECT_NE(ComputeModelContentHash(vec), hash);

  EmbeddingStore bias = MakeStore(16, 4, 1);
  bias.mutable_target_bias(3) += 1e-9;
  EXPECT_NE(ComputeModelContentHash(bias), hash);

  EXPECT_NE(ComputeModelContentHash(MakeStore(17, 4, 1)), hash);
}

TEST(ShardSplitTest, Fp64SlicesAreBitExactAndStamped) {
  const EmbeddingStore full = MakeStore(25, 6, 2);
  const uint64_t hash = ComputeModelContentHash(full);
  const std::string model_path = TempPath("shard_split_fp64.i2v");
  ASSERT_TRUE(SaveModelArtifact(full, MakeMetadata(6), model_path).ok());

  Result<std::vector<std::string>> paths =
      SplitModelArtifact(model_path, ::testing::TempDir(), 3);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  ASSERT_EQ(paths.value().size(), 3u);

  const std::vector<ShardRange> ranges = ComputeShardRanges(25, 3);
  for (uint32_t i = 0; i < 3; ++i) {
    Result<ModelArtifact> slice = LoadModelArtifact(paths.value()[i]);
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    ASSERT_TRUE(slice.value().shard.has_value());
    const ShardSliceInfo& info = *slice.value().shard;
    EXPECT_EQ(info.shard_index, i);
    EXPECT_EQ(info.num_shards, 3u);
    EXPECT_EQ(info.begin_user, ranges[i].begin);
    EXPECT_EQ(info.end_user, ranges[i].end);
    EXPECT_EQ(info.total_users, 25u);
    EXPECT_EQ(info.model_hash, hash);

    const EmbeddingStore& store = slice.value().store;
    ASSERT_EQ(store.num_users(), ranges[i].end - ranges[i].begin);
    for (UserId local = 0; local < store.num_users(); ++local) {
      const UserId global = ranges[i].begin + local;
      EXPECT_EQ(std::memcmp(store.Source(local).data(),
                            full.Source(global).data(), 6 * sizeof(double)),
                0);
      EXPECT_EQ(std::memcmp(store.Target(local).data(),
                            full.Target(global).data(), 6 * sizeof(double)),
                0);
      EXPECT_EQ(store.source_bias(local), full.source_bias(global));
      EXPECT_EQ(store.target_bias(local), full.target_bias(global));
    }
  }
}

TEST(ShardSplitTest, QuantizedSectionSlicedRowLocal) {
  const EmbeddingStore full = MakeStore(20, 8, 3);
  const QuantizedEmbeddingStore quantized =
      QuantizedEmbeddingStore::FromStore(full);
  const std::string model_path = TempPath("shard_split_int8.i2v");
  ASSERT_TRUE(
      SaveModelArtifact(full, MakeMetadata(8), model_path, &quantized).ok());

  Result<std::vector<std::string>> paths =
      SplitModelArtifact(model_path, ::testing::TempDir(), 4);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();

  const std::vector<ShardRange> ranges = ComputeShardRanges(20, 4);
  for (uint32_t i = 0; i < 4; ++i) {
    Result<ModelArtifact> slice = LoadModelArtifact(paths.value()[i]);
    ASSERT_TRUE(slice.ok()) << slice.status().ToString();
    ASSERT_TRUE(slice.value().quantized.has_value());
    const QuantizedEmbeddingStore& qslice = *slice.value().quantized;
    for (UserId local = 0; local < qslice.num_users(); ++local) {
      const UserId global = ranges[i].begin + local;
      EXPECT_EQ(std::memcmp(qslice.Source(local).data(),
                            quantized.Source(global).data(), 8),
                0);
      EXPECT_EQ(std::memcmp(qslice.Target(local).data(),
                            quantized.Target(global).data(), 8),
                0);
      EXPECT_EQ(qslice.source_scale(local), quantized.source_scale(global));
      EXPECT_EQ(qslice.target_scale(local), quantized.target_scale(global));
      EXPECT_EQ(qslice.source_bias(local), quantized.source_bias(global));
      EXPECT_EQ(qslice.target_bias(local), quantized.target_bias(global));
    }
  }
}

TEST(ShardSplitTest, RefusesToSplitAShardArtifact) {
  const EmbeddingStore full = MakeStore(12, 4, 4);
  const std::string model_path = TempPath("shard_split_nested.i2v");
  ASSERT_TRUE(SaveModelArtifact(full, MakeMetadata(4), model_path).ok());
  Result<std::vector<std::string>> paths =
      SplitModelArtifact(model_path, ::testing::TempDir(), 2);
  ASSERT_TRUE(paths.ok());

  Result<std::vector<std::string>> nested =
      SplitModelArtifact(paths.value()[0], ::testing::TempDir(), 2);
  EXPECT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardSplitTest, MoreShardsThanUsersRejected) {
  const EmbeddingStore full = MakeStore(3, 4, 5);
  const std::string model_path = TempPath("shard_split_tiny.i2v");
  ASSERT_TRUE(SaveModelArtifact(full, MakeMetadata(4), model_path).ok());
  Result<std::vector<std::string>> paths =
      SplitModelArtifact(model_path, ::testing::TempDir(), 5);
  EXPECT_FALSE(paths.ok());
}

TEST(ShardSectionTest, CorruptedSectionBytesRejectedByCrc) {
  const EmbeddingStore full = MakeStore(10, 4, 6);
  const std::string model_path = TempPath("shard_crc_model.i2v");
  ASSERT_TRUE(SaveModelArtifact(full, MakeMetadata(4), model_path).ok());
  Result<std::vector<std::string>> paths =
      SplitModelArtifact(model_path, ::testing::TempDir(), 2);
  ASSERT_TRUE(paths.ok());

  // The I2VSHRD1 section is the trailing 40 bytes: 8 magic + 28 fields
  // (including the model hash) + 4 CRC. Flipping any field byte must be
  // caught by the CRC; flipping a CRC byte must also fail.
  const std::string clean = ReadFileBytes(paths.value()[0]);
  ASSERT_GE(clean.size(), 40u);
  for (const size_t back_off : {32u, 20u, 12u, 2u}) {
    std::string corrupt = clean;
    corrupt[corrupt.size() - back_off] ^= 0x01;
    const std::string path = TempPath("shard_crc_corrupt.i2v");
    WriteFileBytes(path, corrupt);
    Result<ModelArtifact> loaded = LoadModelArtifact(path);
    EXPECT_FALSE(loaded.ok())
        << "byte flip at -" << back_off << " went undetected";
  }
  // Control: the untouched artifact loads.
  WriteFileBytes(TempPath("shard_crc_corrupt.i2v"), clean);
  EXPECT_TRUE(LoadModelArtifact(TempPath("shard_crc_corrupt.i2v")).ok());
}

TEST(ShardSectionTest, TruncatedTrailingSectionRejected) {
  const EmbeddingStore full = MakeStore(10, 4, 7);
  const std::string model_path = TempPath("shard_trunc_model.i2v");
  ASSERT_TRUE(SaveModelArtifact(full, MakeMetadata(4), model_path).ok());
  Result<std::vector<std::string>> paths =
      SplitModelArtifact(model_path, ::testing::TempDir(), 2);
  ASSERT_TRUE(paths.ok());

  const std::string clean = ReadFileBytes(paths.value()[0]);
  const std::string path = TempPath("shard_trunc.i2v");
  WriteFileBytes(path, clean.substr(0, clean.size() - 5));
  EXPECT_FALSE(LoadModelArtifact(path).ok());
}

TEST(ShardSectionTest, PlainServeRejectsShardArtifact) {
  const EmbeddingStore full = MakeStore(10, 4, 8);
  const std::string model_path = TempPath("shard_guard_model.i2v");
  ASSERT_TRUE(SaveModelArtifact(full, MakeMetadata(4), model_path).ok());
  Result<std::vector<std::string>> paths =
      SplitModelArtifact(model_path, ::testing::TempDir(), 2);
  ASSERT_TRUE(paths.ok());

  Result<serve::InfluenceService> plain =
      serve::InfluenceService::Load(paths.value()[0], {});
  EXPECT_FALSE(plain.ok());
  EXPECT_EQ(plain.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ShardSectionTest, ShardServeRejectsWholeModelArtifact) {
  const EmbeddingStore full = MakeStore(10, 4, 9);
  const std::string model_path = TempPath("shard_guard_whole.i2v");
  ASSERT_TRUE(SaveModelArtifact(full, MakeMetadata(4), model_path).ok());
  Result<ShardService> service = ShardService::Load(model_path, {});
  EXPECT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kFailedPrecondition);
}

// --- Wire codecs ---

TEST(WireTest, Fp64SeedBlockRoundTripsBitExact) {
  const EmbeddingStore store = MakeStore(12, 5, 10);
  const std::vector<UserId> seeds = {3, 7, 3, 11};
  serve::SeedBlock block =
      serve::GatherSeedBlock(serve::ServingTable(store), seeds);

  // Through Dump + ParseJson, like the real wire (%.17g round-trips every
  // finite double exactly).
  Result<obs::JsonValue> json =
      obs::ParseJson(SeedBlockToJson(block).Dump(0));
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  Result<serve::SeedBlock> decoded = SeedBlockFromJson(json.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  const serve::SeedBlock& out = decoded.value();
  EXPECT_EQ(out.dim, block.dim);
  EXPECT_EQ(out.stride, block.stride);
  EXPECT_EQ(out.mode(), serve::QuantMode::kNone);
  EXPECT_EQ(out.seeds, block.seeds);
  const auto& out_rows = std::get<serve::SeedBlock::Fp64Rows>(out.rows);
  const auto& rows = std::get<serve::SeedBlock::Fp64Rows>(block.rows);
  ASSERT_EQ(out_rows.size(), rows.size());
  EXPECT_EQ(std::memcmp(out_rows.data(), rows.data(),
                        rows.size() * sizeof(double)),
            0);
  EXPECT_EQ(out.biases, block.biases);
}

TEST(WireTest, QuantizedSeedBlockRoundTripsBitExact) {
  const EmbeddingStore store = MakeStore(12, 5, 11);
  const QuantizedEmbeddingStore quantized =
      QuantizedEmbeddingStore::FromStore(store);
  const std::vector<UserId> seeds = {0, 9, 4};
  serve::SeedBlock block =
      serve::GatherSeedBlock(serve::ServingTable(quantized), seeds);

  Result<obs::JsonValue> json =
      obs::ParseJson(SeedBlockToJson(block).Dump(0));
  ASSERT_TRUE(json.ok());
  Result<serve::SeedBlock> decoded = SeedBlockFromJson(json.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  const serve::SeedBlock& out = decoded.value();
  EXPECT_EQ(out.mode(), serve::QuantMode::kInt8);
  EXPECT_EQ(out.stride, block.stride);
  const auto& out_rows = std::get<serve::SeedBlock::Int8Rows>(out.rows);
  const auto& rows = std::get<serve::SeedBlock::Int8Rows>(block.rows);
  ASSERT_EQ(out_rows.size(), rows.size());
  EXPECT_EQ(std::memcmp(out_rows.data(), rows.data(), rows.size()), 0);
  EXPECT_EQ(out.scales, block.scales);
  EXPECT_EQ(out.biases, block.biases);
}

TEST(WireTest, TopKRequestResponseRoundTrip) {
  const EmbeddingStore store = MakeStore(8, 3, 12);
  ShardTopKRequest request;
  request.k = 5;
  request.aggregation = Aggregation::kMax;
  request.deadline_us = 250000;
  request.exclude = {1, 2, 7};
  request.block = serve::GatherSeedBlock(serve::ServingTable(store), {1, 2});

  Result<obs::JsonValue> json =
      obs::ParseJson(ShardTopKRequestToJson(request).Dump(0));
  ASSERT_TRUE(json.ok());
  Result<ShardTopKRequest> decoded = ShardTopKRequestFromJson(json.value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().k, 5u);
  ASSERT_TRUE(decoded.value().aggregation.has_value());
  EXPECT_EQ(*decoded.value().aggregation, Aggregation::kMax);
  EXPECT_EQ(decoded.value().deadline_us, 250000u);
  EXPECT_EQ(decoded.value().exclude, request.exclude);
  EXPECT_EQ(decoded.value().block.seeds, request.block.seeds);

  ShardTopKResponse response;
  response.shard_index = 2;
  response.scanned = 123;
  response.entries = {{4, 0.5}, {9, 0.5}, {1, -0.25}};
  Result<obs::JsonValue> response_json =
      obs::ParseJson(ShardTopKResponseToJson(response).Dump(0));
  ASSERT_TRUE(response_json.ok());
  Result<ShardTopKResponse> decoded_response =
      ShardTopKResponseFromJson(response_json.value());
  ASSERT_TRUE(decoded_response.ok())
      << decoded_response.status().ToString();
  EXPECT_EQ(decoded_response.value().shard_index, 2u);
  EXPECT_EQ(decoded_response.value().scanned, 123u);
  ASSERT_EQ(decoded_response.value().entries.size(), 3u);
  EXPECT_EQ(decoded_response.value().entries[1].user, 9u);
  EXPECT_EQ(decoded_response.value().entries[1].score, 0.5);
}

TEST(WireTest, MalformedBlocksRejected) {
  obs::JsonValue bad = obs::JsonValue::Object();
  bad.Set("dim", 4);
  EXPECT_FALSE(SeedBlockFromJson(bad).ok());

  // Row length disagreeing with dim.
  const EmbeddingStore store = MakeStore(6, 4, 13);
  serve::SeedBlock block =
      serve::GatherSeedBlock(serve::ServingTable(store), {1});
  obs::JsonValue json = SeedBlockToJson(block);
  json.Set("dim", 3);
  EXPECT_FALSE(SeedBlockFromJson(json).ok());
}

// --- Shard endpoints ---

TEST(ShardEndpointsTest, PostTopKRefusesForeignBlocksWithTypedErrors) {
  const EmbeddingStore full = MakeStore(12, 4, 21);
  const std::string model_path = TempPath("shard_http_guard.i2v");
  ASSERT_TRUE(SaveModelArtifact(full, MakeMetadata(4), model_path).ok());
  const std::string dir = TempPath("shard_http_guard");
  std::filesystem::create_directories(dir);
  Result<std::vector<std::string>> paths =
      SplitModelArtifact(model_path, dir, 2);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  Result<ShardService> shard = ShardService::Load(paths.value()[0], {});
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  obs::MetricsRegistry registry;
  obs::StatsServer server({}, &registry);
  RegisterShardEndpoints(&server, &shard.value());
  ASSERT_TRUE(server.Start().ok());

  const auto post_topk = [&server](const std::string& body) {
    obs::HttpClient client(server.port());
    obs::HttpClientResponse response;
    EXPECT_TRUE(client.Post("/topk", body, &response, 5000));
    return response;
  };
  const auto block_body = [](serve::ServingTable table) {
    ShardTopKRequest request;
    request.k = 3;
    request.block = serve::GatherSeedBlock(table, {1, 2});
    return ShardTopKRequestToJson(request).Dump(0);
  };
  const auto code_of = [](const obs::HttpClientResponse& response) {
    Result<obs::JsonValue> doc = obs::ParseJson(response.body);
    const obs::JsonValue* code =
        doc.ok() ? doc.value().Find("code") : nullptr;
    return code != nullptr ? code->AsString() : std::string();
  };

  // The shard serves fp64: an int8 block of the right dim is a mode
  // mismatch, and a block of another dim is an invalid argument.
  const obs::HttpClientResponse int8_reply = post_topk(
      block_body(serve::ServingTable(QuantizedEmbeddingStore::FromStore(full))));
  EXPECT_EQ(int8_reply.status, 409) << int8_reply.body;
  EXPECT_EQ(code_of(int8_reply), "FAILED_PRECONDITION") << int8_reply.body;
  const obs::HttpClientResponse wide_reply =
      post_topk(block_body(serve::ServingTable(MakeStore(12, 5, 21))));
  EXPECT_EQ(wide_reply.status, 400) << wide_reply.body;
  EXPECT_EQ(code_of(wide_reply), "INVALID_ARGUMENT");
  EXPECT_EQ(post_topk(block_body(serve::ServingTable(full))).status, 200);

  // Wire fields of the wrong JSON kind answer 400 instead of aborting.
  for (const std::string body :
       {"{\"k\": 1.5, \"block\": {}}",
        "{\"k\": 3, \"aggregation\": 7, \"block\": {}}",
        "{\"k\": 3, \"block\": {\"dim\": 4.5}}"}) {
    EXPECT_EQ(post_topk(body).status, 400) << body;
  }
  server.Stop();
}

TEST(ShardEndpointsTest, PostGatherRefusesMoreSeedsThanMaxSeeds) {
  const EmbeddingStore full = MakeStore(12, 4, 22);
  const std::string model_path = TempPath("shard_gather_cap.i2v");
  ASSERT_TRUE(SaveModelArtifact(full, MakeMetadata(4), model_path).ok());
  const std::string dir = TempPath("shard_gather_cap");
  std::filesystem::create_directories(dir);
  Result<std::vector<std::string>> paths =
      SplitModelArtifact(model_path, dir, 2);
  ASSERT_TRUE(paths.ok()) << paths.status().ToString();
  serve::ServiceOptions options;
  options.max_seeds = 3;
  Result<ShardService> shard = ShardService::Load(paths.value()[0], options);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();
  obs::MetricsRegistry registry;
  obs::StatsServer server({}, &registry);
  RegisterShardEndpoints(&server, &shard.value());
  ASSERT_TRUE(server.Start().ok());

  const auto post_gather = [&server](const std::string& body) {
    obs::HttpClient client(server.port());
    obs::HttpClientResponse response;
    EXPECT_TRUE(client.Post("/gather", body, &response, 5000));
    return response;
  };
  // Repeating one owned id is how a small body asks for a large answer:
  // max_seeds of them gather, one more is refused before any row is read.
  EXPECT_EQ(post_gather("{\"seeds\": [1, 1, 1]}").status, 200);
  const obs::HttpClientResponse over = post_gather("{\"seeds\": [1, 1, 1, 1]}");
  EXPECT_EQ(over.status, 400) << over.body;
  EXPECT_NE(over.body.find("INVALID_ARGUMENT"), std::string::npos)
      << over.body;
  server.Stop();
}

}  // namespace
}  // namespace shard
}  // namespace inf2vec

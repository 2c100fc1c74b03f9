// The session builder (src/session): the stacks it builds answer exactly
// like hand-built ones, and its durable remote opener keeps the session
// id and the wire sequence across reopenings.

#include <filesystem>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/fs_util.h"
#include "core/rq_db_sky.h"
#include "dataset/blue_nile.h"
#include "dataset/pack.h"
#include "interface/ranking.h"
#include "interface/top_k_interface.h"
#include "service/event_server.h"
#include "session/stack.h"

namespace hdsky {
namespace session {
namespace {

struct ScopedDir {
  ScopedDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "hdsky_session.XXXXXX")
                           .string();
    EXPECT_NE(::mkdtemp(tmpl.data()), nullptr);
    path = tmpl;
  }
  ~ScopedDir() { std::filesystem::remove_all(path); }
  std::string path;
};

SourceConfig BlueNile() {
  SourceConfig config;
  config.demo = "bluenile";
  config.n = 1000;
  config.k = 10;
  return config;
}

/// RQ-DB-SKY over a TopKInterface built by hand from the same data.
core::DiscoveryResult DirectRun(data::Table* table) {
  dataset::BlueNileOptions gen;
  gen.num_tuples = 1000;
  gen.seed = 42;
  *table = std::move(dataset::GenerateBlueNile(gen)).value();
  interface::TopKOptions topk;
  topk.k = 10;
  auto iface = std::move(interface::TopKInterface::Create(
                             table, interface::MakeSumRanking(), topk))
                   .value();
  return std::move(core::RqDbSky(iface.get())).value();
}

core::DiscoveryResult StackRun(const SourceConfig& config) {
  StackConfig stack_config;
  stack_config.algorithm = "rq";
  Stack stack(stack_config);
  EXPECT_FALSE(stack.engine.OpenData(config, nullptr).has_value());
  EXPECT_FALSE(stack.engine.Build(config).has_value());
  EXPECT_FALSE(stack.Open(nullptr).has_value());
  auto result = stack.Run([] { return false; }, nullptr);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

TEST(SessionTest, LocalAndPagedStacksMatchADirectInterface) {
  data::Table table;
  const core::DiscoveryResult direct = DirectRun(&table);
  ASSERT_TRUE(direct.complete);

  const core::DiscoveryResult in_memory = StackRun(BlueNile());
  EXPECT_EQ(in_memory.skyline_ids, direct.skyline_ids);
  EXPECT_EQ(in_memory.query_cost, direct.query_cost);

  ScopedDir dir;
  SourceConfig paged;
  paged.dataset_file = dir.path + "/bluenile.hdb";
  paged.k = 10;
  paged.buffer_pool_bytes = 64 << 10;  // far below the data: evicts
  paged.read_path = "pread";
  ASSERT_TRUE(dataset::PackTable(table, interface::MakeSumRanking(),
                                 paged.dataset_file, data::BlockFileOptions())
                  .ok());
  const core::DiscoveryResult out_of_core = StackRun(paged);
  EXPECT_EQ(out_of_core.skyline_ids, direct.skyline_ids);
  EXPECT_EQ(out_of_core.query_cost, direct.query_cost);
}

/// A loopback server over the Blue Nile table, shared cache off so every
/// fresh query reaches the backend.
class RemoteSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_FALSE(engine_.OpenData(BlueNile(), nullptr).has_value());
    ASSERT_FALSE(engine_.Build(BlueNile()).has_value());
    service::EventDrivenServer::Options options;
    options.shared_cache = false;
    server_ = std::move(service::EventDrivenServer::Start(
                            engine_.iface.get(), options))
                  .value();
  }

  /// A durable remote site over the server, journaled in dir_.
  std::unique_ptr<Stack> Open() {
    auto stack = std::make_unique<Stack>(Durable());
    service::RemoteHiddenDatabase::Options client;
    client.io_timeout_ms = 2000;
    client.initial_backoff_ms = 1;
    if (auto failed = stack->Connect(client, nullptr)) {
      ADD_FAILURE() << failed->text;
      return nullptr;
    }
    if (auto failed = stack->OpenJournal(true, nullptr)) {
      ADD_FAILURE() << failed->text;
      return nullptr;
    }
    return stack;
  }

  StackConfig Durable() const {
    StackConfig config;
    config.endpoint = "127.0.0.1:" + std::to_string(server_->port());
    config.journal = dir_.path;
    config.algorithm = "rq";
    return config;
  }

  interface::Query Query(int i) const {
    interface::Query q(engine_.table.schema().num_attributes());
    q.AddAtMost(0, 100 + i);
    return q;
  }

  Engine engine_;
  std::unique_ptr<service::EventDrivenServer> server_;
  ScopedDir dir_;
};

TEST_F(RemoteSessionTest, SessionIdIsMintedOnceAndReused) {
  uint64_t first_id = 0;
  {
    auto stack = Open();
    ASSERT_NE(stack, nullptr);
    first_id = stack->remote->session_id();
  }
  auto persisted = common::ReadFileToString(dir_.path + "/SESSION");
  ASSERT_TRUE(persisted.ok()) << persisted.status();
  EXPECT_EQ(*persisted, std::to_string(first_id) + "\n");

  auto stack = Open();
  ASSERT_NE(stack, nullptr);
  EXPECT_EQ(stack->remote->session_id(), first_id);
  EXPECT_EQ(*common::ReadFileToString(dir_.path + "/SESSION"), *persisted);
}

TEST_F(RemoteSessionTest, MalformedSessionFileIsRejectedAndKept) {
  const std::string path = dir_.path + "/SESSION";
  ASSERT_TRUE(common::AtomicWriteFile(path, "12ab\n").ok());
  auto id = LoadOrCreateSessionId(dir_.path);
  ASSERT_FALSE(id.ok());
  EXPECT_TRUE(id.status().IsIOError()) << id.status();

  Stack stack(Durable());
  auto failed = stack.Connect({}, nullptr);
  ASSERT_TRUE(failed.has_value());
  EXPECT_EQ(failed->exit_code, 1);
  EXPECT_TRUE(failed->status.IsIOError()) << failed->status;
  EXPECT_EQ(stack.remote, nullptr);
  EXPECT_EQ(*common::ReadFileToString(path), "12ab\n");
}

TEST_F(RemoteSessionTest, JournaledRemoteContinuesTheWireSequence) {
  uint64_t next_seq = 0;
  {
    auto stack = Open();
    ASSERT_NE(stack, nullptr);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(stack->top()->Execute(Query(i)).ok());
    }
    next_seq = stack->remote->next_seq();
    EXPECT_EQ(next_seq, 4u);
  }
  auto stack = Open();
  ASSERT_NE(stack, nullptr);
  EXPECT_TRUE(stack->journal->resumed());
  EXPECT_EQ(stack->remote->next_seq(), next_seq);
  // The paid prefix replays from the journal; the next fresh query goes
  // out under the next wire number, which the server accepts in order.
  for (int i = 0; i < 4; ++i) {
    auto answer = stack->top()->Execute(Query(i));
    ASSERT_TRUE(answer.ok()) << answer.status();
  }
  EXPECT_EQ(stack->journal->stats().replayed, 3);
  EXPECT_EQ(stack->journal->stats().paid, 1);
  EXPECT_EQ(stack->remote->next_seq(), next_seq + 1);
  server_->Stop();
  EXPECT_EQ(server_->stats().backend_executions, 4);
  EXPECT_EQ(server_->stats().protocol_errors, 0);
}

}  // namespace
}  // namespace session
}  // namespace hdsky

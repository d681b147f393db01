#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::PaperFigure1Graph;
using testing::SmallRmat;

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hytgraph_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, BinaryRoundTripPreservesEverything) {
  const CsrGraph original = PaperFigure1Graph();
  const std::string path = Path("fig1.hytg");
  ASSERT_TRUE(SaveCsrBinary(original, path).ok());
  auto loaded = LoadCsrBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->row_offsets(), original.row_offsets());
  EXPECT_EQ(loaded->column_index(), original.column_index());
  EXPECT_EQ(loaded->edge_weights(), original.edge_weights());
}

TEST_F(GraphIoTest, BinaryRoundTripLargeGraph) {
  const CsrGraph original = SmallRmat(10, 4);
  const std::string path = Path("rmat.hytg");
  ASSERT_TRUE(SaveCsrBinary(original, path).ok());
  auto loaded = LoadCsrBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_edges(), original.num_edges());
  EXPECT_EQ(loaded->column_index(), original.column_index());
}

TEST_F(GraphIoTest, LoadMissingFileIsIOError) {
  auto result = LoadCsrBinary(Path("missing.hytg"));
  EXPECT_TRUE(result.status().IsIOError());
}

TEST_F(GraphIoTest, LoadGarbageIsIOError) {
  const std::string path = Path("garbage.hytg");
  std::ofstream(path) << "this is not a graph";
  auto result = LoadCsrBinary(path);
  EXPECT_TRUE(result.status().IsIOError());
}

TEST_F(GraphIoTest, LoadTruncatedFileIsIOError) {
  const CsrGraph original = PaperFigure1Graph();
  const std::string path = Path("truncated.hytg");
  ASSERT_TRUE(SaveCsrBinary(original, path).ok());
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  auto result = LoadCsrBinary(path);
  EXPECT_TRUE(result.status().IsIOError());
}

TEST_F(GraphIoTest, LoadHugeArrayCountIsIOError) {
  // A valid header followed by an array count far beyond the file's size
  // must fail cleanly instead of attempting the allocation.
  const CsrGraph original = PaperFigure1Graph();
  const std::string path = Path("corrupt.hytg");
  ASSERT_TRUE(SaveCsrBinary(original, path).ok());
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(sizeof(uint64_t) + sizeof(uint32_t));  // magic + version
    const uint64_t huge_count = uint64_t{1} << 61;
    file.write(reinterpret_cast<const char*>(&huge_count), sizeof(huge_count));
  }
  auto result = LoadCsrBinary(path);
  ASSERT_TRUE(result.status().IsIOError()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("truncated HYTG CSR file"),
            std::string::npos);
}

TEST_F(GraphIoTest, EdgeListTextParsing) {
  const std::string path = Path("edges.txt");
  std::ofstream(path) << "# comment line\n"
                      << "% another comment\n"
                      << "0 1 5\n"
                      << "1 2\n"        // default weight 1
                      << "2 0 3\n";
  auto g = LoadEdgeListText(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
  EXPECT_EQ(g->weights(0)[0], 5u);
  EXPECT_EQ(g->weights(1)[0], 1u);
}

TEST_F(GraphIoTest, EdgeListHonorsVertexHint) {
  const std::string path = Path("hint.txt");
  std::ofstream(path) << "0 1\n";
  auto g = LoadEdgeListText(path, /*num_vertices_hint=*/100);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 100u);
}

TEST_F(GraphIoTest, EdgeListParseErrorNamesLine) {
  const std::string path = Path("bad.txt");
  std::ofstream(path) << "0 1\nnot numbers\n";
  auto g = LoadEdgeListText(path);
  ASSERT_TRUE(g.status().IsIOError());
  EXPECT_NE(g.status().message().find(":2"), std::string::npos);
}

TEST_F(GraphIoTest, EdgeListBadWeightNamesLine) {
  const struct {
    const char* weight;
    const char* why;
  } cases[] = {
      {"x", "non-numeric"},
      {"4294967301", "above UINT32_MAX"},
      {"-1", "negative"},
      {"3.5", "fractional"},
  };
  for (const auto& c : cases) {
    const std::string path = Path("bad_weight.txt");
    std::ofstream(path) << "0 1 2\n1 2 " << c.weight << "\n";
    auto g = LoadEdgeListText(path);
    ASSERT_TRUE(g.status().IsIOError()) << c.why;
    EXPECT_NE(g.status().message().find(path + ":2"), std::string::npos)
        << c.why << ": " << g.status().message();
  }
}

TEST_F(GraphIoTest, EdgeListAcceptsLargestWeight) {
  const std::string path = Path("max_weight.txt");
  std::ofstream(path) << "0 1 4294967295\n1 0 0\n";
  auto g = LoadEdgeListText(path);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g->weights(0)[0], 4294967295u);
  EXPECT_EQ(g->weights(1)[0], 0u);
}

TEST_F(GraphIoTest, EdgeListUnweighted) {
  const std::string path = Path("unweighted.txt");
  std::ofstream(path) << "0 1 99\n";
  auto g = LoadEdgeListText(path, 0, /*weighted=*/false);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->is_weighted());
}

}  // namespace
}  // namespace hytgraph

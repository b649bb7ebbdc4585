// Unit tests for the support module: strings, hashing, tables, fs, rng,
// the persistent thread pool behind parallel_for / parallel_reduce, and
// the sharded cache's single-flight misses.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/support/arena.hpp"
#include "src/support/error.hpp"
#include "src/support/fs_util.hpp"
#include "src/support/intern.hpp"
#include "src/support/hash.hpp"
#include "src/support/log.hpp"
#include "src/support/parallel.hpp"
#include "src/support/rng.hpp"
#include "src/support/sharded_cache.hpp"
#include "src/support/string_util.hpp"
#include "src/support/table.hpp"
#include "src/support/thread_pool.hpp"

namespace bs = benchpark::support;

TEST(StringUtil, SplitKeepsEmptyFields) {
  auto parts = bs::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, SplitSingleToken) {
  auto parts = bs::split("alone", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "alone");
}

TEST(StringUtil, SplitWsDropsEmpty) {
  auto parts = bs::split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(StringUtil, SplitFirst) {
  auto [k, v] = bs::split_first("key=value=more", '=');
  EXPECT_EQ(k, "key");
  EXPECT_EQ(v, "value=more");
  auto [k2, v2] = bs::split_first("nokey", '=');
  EXPECT_EQ(k2, "nokey");
  EXPECT_EQ(v2, "");
}

TEST(StringUtil, JoinRoundTrip) {
  std::vector<std::string> parts{"a", "b", "c"};
  EXPECT_EQ(bs::join(parts, ", "), "a, b, c");
  EXPECT_EQ(bs::join({}, ","), "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(bs::trim("  x y  "), "x y");
  EXPECT_EQ(bs::trim("\t\n"), "");
  EXPECT_EQ(bs::trim(""), "");
}

TEST(StringUtil, StartsEndsContains) {
  EXPECT_TRUE(bs::starts_with("amg2023+caliper", "amg"));
  EXPECT_FALSE(bs::starts_with("a", "ab"));
  EXPECT_TRUE(bs::ends_with("ramble.yaml", ".yaml"));
  EXPECT_FALSE(bs::ends_with("x", "yaml"));
  EXPECT_TRUE(bs::contains("spack install", "inst"));
}

TEST(StringUtil, ReplaceAll) {
  EXPECT_EQ(bs::replace_all("a{x}b{x}", "{x}", "1"), "a1b1");
  EXPECT_EQ(bs::replace_all("aaa", "a", "aa"), "aaaaaa");
}

TEST(StringUtil, Padding) {
  EXPECT_EQ(bs::pad_right("ab", 4), "ab  ");
  EXPECT_EQ(bs::pad_left("ab", 4), "  ab");
  EXPECT_EQ(bs::pad_right("abcd", 2), "abcd");
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(bs::format_double(2.0), "2");
  EXPECT_EQ(bs::format_double(0.0466, 3), "0.0466");
  EXPECT_EQ(bs::format_double(1.5), "1.5");
}

TEST(StringUtil, ParseIntValid) {
  EXPECT_EQ(bs::parse_int("42"), 42);
  EXPECT_EQ(bs::parse_int(" -7 "), -7);
}

TEST(StringUtil, ParseIntInvalidThrows) {
  EXPECT_THROW(bs::parse_int("4x"), benchpark::Error);
  EXPECT_THROW(bs::parse_int(""), benchpark::Error);
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(bs::parse_double("0.5"), 0.5);
  EXPECT_THROW(bs::parse_double("half"), benchpark::Error);
}

TEST(StringUtil, LooksLike) {
  EXPECT_TRUE(bs::looks_like_int("512"));
  EXPECT_FALSE(bs::looks_like_int("512b"));
  EXPECT_TRUE(bs::looks_like_double("1e-3"));
  EXPECT_FALSE(bs::looks_like_double(""));
}

TEST(StringUtil, IsIdentifier) {
  EXPECT_TRUE(bs::is_identifier("amg2023"));
  EXPECT_TRUE(bs::is_identifier("intel-oneapi-mkl"));
  EXPECT_FALSE(bs::is_identifier("a b"));
  EXPECT_FALSE(bs::is_identifier(""));
}

TEST(Hash, Deterministic) {
  EXPECT_EQ(bs::fnv1a("spack"), bs::fnv1a("spack"));
  EXPECT_NE(bs::fnv1a("spack"), bs::fnv1a("spac"));
}

TEST(Hash, SeparatorPreventsConcatCollisions) {
  bs::Hasher a;
  a.update("ab").update("c");
  bs::Hasher b;
  b.update("a").update("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, Base32IsLowercase13Chars) {
  auto h = bs::hash_base32("amg2023+caliper");
  EXPECT_EQ(h.size(), 13u);
  for (char c : h) {
    EXPECT_TRUE((c >= 'a' && c <= 'z') || (c >= '2' && c <= '7')) << c;
  }
}

TEST(Hash, HexIs16Chars) {
  bs::Hasher h;
  h.update("x");
  EXPECT_EQ(h.hex().size(), 16u);
}

TEST(Table, RendersAlignedColumns) {
  bs::Table t({"name", "time"});
  t.add_row({"saxpy", "1.25"});
  t.add_row({"amg2023", "320.5"});
  auto text = t.render();
  EXPECT_NE(text.find("| name    | time  |"), std::string::npos);
  EXPECT_NE(text.find("| amg2023 | 320.5 |"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  bs::Table t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_NE(t.render().find("| 1 |   |   |"), std::string::npos);
}

TEST(Table, RejectsOverlongRows) {
  bs::Table t({"a"});
  EXPECT_THROW(t.add_row({"1", "2"}), benchpark::Error);
}

TEST(Table, MarkdownHasSeparatorRow) {
  bs::Table t({"x"});
  t.add_row({"1"});
  auto md = t.render_markdown();
  EXPECT_NE(md.find("|---|"), std::string::npos);
}

TEST(FsUtil, WriteReadRoundTrip) {
  bs::TempDir tmp;
  auto file = tmp.path() / "sub" / "file.txt";
  bs::write_file(file, "hello\n");
  EXPECT_EQ(bs::read_file(file), "hello\n");
}

TEST(FsUtil, ReadMissingThrows) {
  EXPECT_THROW(bs::read_file("/nonexistent/x/y"), benchpark::Error);
}

TEST(FsUtil, TempDirRemovedOnScopeExit) {
  std::filesystem::path kept;
  {
    bs::TempDir tmp;
    kept = tmp.path();
    EXPECT_TRUE(std::filesystem::exists(kept));
  }
  EXPECT_FALSE(std::filesystem::exists(kept));
}

TEST(FsUtil, RenderTreeListsDirsFirst) {
  bs::TempDir tmp;
  bs::write_file(tmp.path() / "zz.txt", "");
  bs::write_file(tmp.path() / "configs" / "a.yaml", "");
  auto tree = bs::render_tree(tmp.path());
  auto dir_pos = tree.find("configs/");
  auto file_pos = tree.find("zz.txt");
  ASSERT_NE(dir_pos, std::string::npos);
  ASSERT_NE(file_pos, std::string::npos);
  EXPECT_LT(dir_pos, file_pos);
  EXPECT_NE(tree.find("a.yaml"), std::string::npos);
}

TEST(Rng, DeterministicForSameSeed) {
  bs::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  bs::Rng a(1), b(2);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  bs::Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, GaussianRoughlyCentered) {
  bs::Rng rng(11);
  double sum = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) sum += rng.next_gaussian();
  EXPECT_NEAR(sum / n, 0.0, 0.05);
}

TEST(Rng, NoiseFactorAlwaysPositive) {
  bs::Rng rng(3);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.noise_factor(0.5), 0.0);
}

TEST(Log, SinkCapturesAtLevel) {
  namespace bs = benchpark::support;
  std::vector<std::string> captured;
  bs::Log::set_sink([&](bs::LogLevel, std::string_view msg) {
    captured.emplace_back(msg);
  });
  bs::ScopedLogLevel scope(bs::LogLevel::info);
  bs::Log::debug("hidden");
  bs::Log::info("shown");
  bs::Log::error("also shown");
  EXPECT_EQ(captured, (std::vector<std::string>{"shown", "also shown"}));
  bs::Log::set_sink(nullptr);
}

TEST(Log, ScopedLevelRestores) {
  namespace bs = benchpark::support;
  auto before = bs::Log::level();
  {
    bs::ScopedLogLevel scope(bs::LogLevel::off);
    EXPECT_EQ(bs::Log::level(), bs::LogLevel::off);
  }
  EXPECT_EQ(bs::Log::level(), before);
}

TEST(Log, OffSilencesEverything) {
  namespace bs = benchpark::support;
  int count = 0;
  bs::Log::set_sink([&](bs::LogLevel, std::string_view) { ++count; });
  bs::ScopedLogLevel scope(bs::LogLevel::off);
  bs::Log::error("nope");
  EXPECT_EQ(count, 0);
  bs::Log::set_sink(nullptr);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  std::vector<int> hits(10000, 0);
  bs::parallel_for(hits.size(), 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10000);
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPool, WorkersAreReusedAcrossCalls) {
  // Warm the pool to this test's width, then hammer it: the hot path
  // must not construct a single new std::thread.
  std::atomic<std::uint64_t> total{0};
  bs::parallel_for(1024, 8, [&](std::size_t lo, std::size_t hi) {
    total.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  const auto spawned = bs::ThreadPool::global().workers_spawned();
  EXPECT_GT(spawned, 0u);
  for (int rep = 0; rep < 300; ++rep) {
    bs::parallel_for(1024, 8, [&](std::size_t lo, std::size_t hi) {
      total.fetch_add(hi - lo, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(bs::ThreadPool::global().workers_spawned(), spawned);
  EXPECT_EQ(total.load(), 1024u * 301u);
}

TEST(ThreadPool, SerialFallbackSpawnsNothing) {
  const auto spawned = bs::ThreadPool::global().workers_spawned();
  int calls = 0;
  bs::parallel_for(100, 1, [&](std::size_t lo, std::size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 100u);
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(bs::ThreadPool::global().workers_spawned(), spawned);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  EXPECT_THROW(
      bs::parallel_for(1000, 8,
                       [](std::size_t lo, std::size_t) {
                         if (lo == 0) throw std::runtime_error("chunk 0");
                       }),
      std::runtime_error);
  // The pool keeps working after a failed batch.
  std::atomic<int> sum{0};
  bs::parallel_for(1000, 8, [&](std::size_t lo, std::size_t hi) {
    sum.fetch_add(static_cast<int>(hi - lo), std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 1000);
}

TEST(ThreadPool, NestedParallelForIsCorrect) {
  constexpr std::size_t kOuter = 48, kInner = 48;
  std::vector<int> hits(kOuter * kInner, 0);
  bs::parallel_for(kOuter, 4, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      // Inner forks collapse inline on pool workers (and may re-fork on
      // the caller's chunk); either way each cell runs exactly once.
      bs::parallel_for(kInner, 4, [&](std::size_t jlo, std::size_t jhi) {
        for (std::size_t j = jlo; j < jhi; ++j) ++hits[i * kInner + j];
      });
    }
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(kOuter * kInner));
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
  EXPECT_EQ(*std::max_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPool, ParallelReduceSum) {
  constexpr std::uint64_t kN = 100000;
  auto total = bs::parallel_reduce(
      kN, 8, std::uint64_t{0},
      [](std::size_t lo, std::size_t hi) {
        std::uint64_t sum = 0;
        for (std::size_t i = lo; i < hi; ++i) sum += i;
        return sum;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  EXPECT_EQ(total, kN * (kN - 1) / 2);
}

TEST(ThreadPool, ParallelReduceSerialFallbackMatches) {
  auto reduce_with = [](int threads) {
    return bs::parallel_reduce(
        5000, threads, std::uint64_t{0},
        [](std::size_t lo, std::size_t hi) {
          std::uint64_t sum = 0;
          for (std::size_t i = lo; i < hi; ++i) sum += i * i;
          return sum;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
  };
  EXPECT_EQ(reduce_with(1), reduce_with(7));
}

TEST(ThreadPool, StressManySmallMixedBatches) {
  // Warm the pool to the widest batch below, then record the spawn count.
  bs::parallel_for(64, 8, [](std::size_t, std::size_t) {});
  const auto spawned_before = bs::ThreadPool::global().workers_spawned();
  for (int rep = 0; rep < 400; ++rep) {
    const std::size_t n = static_cast<std::size_t>(rep % 97) + 3;
    const int threads = rep % 7 + 2;
    std::atomic<std::size_t> covered{0};
    bs::parallel_for(n, threads, [&](std::size_t lo, std::size_t hi) {
      covered.fetch_add(hi - lo, std::memory_order_relaxed);
    });
    ASSERT_EQ(covered.load(), n) << "rep " << rep;
  }
  // Every width used here is <= the pool's warmed size; still zero new
  // thread construction across 400 batches.
  EXPECT_EQ(bs::ThreadPool::global().workers_spawned(), spawned_before);
}

TEST(ThreadPool, DefaultThreadsIsPositive) {
  EXPECT_GE(bs::ThreadPool::default_threads(), 1);
}

// ---------------------------------------------------------------- intern

TEST(Intern, EmptyStringIsSentinelZero) {
  EXPECT_EQ(bs::intern(""), 0u);
  EXPECT_EQ(bs::intern_view(0), "");
}

TEST(Intern, SameStringSameId) {
  auto a = bs::intern("intern-same-string");
  auto b = bs::intern("intern-same-string");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(bs::intern_view(a), "intern-same-string");
}

TEST(Intern, DistinctStringsDistinctIds) {
  auto a = bs::intern("intern-distinct-a");
  auto b = bs::intern("intern-distinct-b");
  EXPECT_NE(a, b);
  EXPECT_EQ(bs::intern_view(a), "intern-distinct-a");
  EXPECT_EQ(bs::intern_view(b), "intern-distinct-b");
}

TEST(Intern, LookupNeverInserts) {
  auto& interner = bs::Interner::global();
  EXPECT_EQ(interner.lookup("intern-never-seen-before-xyzzy"), 0u);
  auto before = interner.size();
  EXPECT_EQ(interner.lookup("intern-never-seen-before-xyzzy"), 0u);
  EXPECT_EQ(interner.size(), before);
  auto id = interner.intern("intern-never-seen-before-xyzzy");
  EXPECT_NE(id, 0u);
  EXPECT_EQ(interner.lookup("intern-never-seen-before-xyzzy"), id);
}

TEST(Intern, OutOfRangeViewIsEmpty) {
  EXPECT_EQ(bs::intern_view(0xffffffffu), "");
}

TEST(Intern, EightThreadContentionIsIdempotent) {
  // All 8 workers intern the same 64 fresh names concurrently; every
  // worker must observe the same id per name (first-insert races resolve
  // to a single winner) and views must match the bytes.
  constexpr int kThreads = 8;
  constexpr int kNames = 64;
  std::vector<std::string> names;
  names.reserve(kNames);
  for (int i = 0; i < kNames; ++i) {
    names.push_back("intern-contend-" + std::to_string(i));
  }
  std::vector<std::vector<std::uint32_t>> ids(
      kThreads, std::vector<std::uint32_t>(kNames, 0));
  bs::parallel_for(kThreads, kThreads, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t t = lo; t < hi; ++t) {
      for (int i = 0; i < kNames; ++i) {
        ids[t][static_cast<std::size_t>(i)] = bs::intern(names[static_cast<std::size_t>(i)]);
      }
    }
  });
  for (int i = 0; i < kNames; ++i) {
    const auto expected = ids[0][static_cast<std::size_t>(i)];
    EXPECT_NE(expected, 0u);
    EXPECT_EQ(bs::intern_view(expected), names[static_cast<std::size_t>(i)]);
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[static_cast<std::size_t>(t)][static_cast<std::size_t>(i)],
                expected)
          << "thread " << t << " name " << i;
    }
  }
}

TEST(Intern, IdsAreStableAcrossLaterInserts) {
  auto id = bs::intern("intern-stable-anchor");
  auto view = bs::intern_view(id);
  for (int i = 0; i < 200; ++i) {
    bs::intern("intern-stable-filler-" + std::to_string(i));
  }
  EXPECT_EQ(bs::intern("intern-stable-anchor"), id);
  // The view must still point at valid storage (append-only guarantee).
  EXPECT_EQ(bs::intern_view(id), "intern-stable-anchor");
  EXPECT_EQ(view, "intern-stable-anchor");
}

// ----------------------------------------------------------------- arena

TEST(Arena, RespectsAlignment) {
  bs::Arena arena;
  // Interleave odd sizes with strict alignments; every pointer must honor
  // the requested alignment.
  for (std::size_t align : {1UL, 2UL, 4UL, 8UL, 16UL, 64UL}) {
    void* odd = arena.allocate(3, 1);
    ASSERT_NE(odd, nullptr);
    void* p = arena.allocate(24, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align " << align;
  }
  double* d = arena.allocate_array<double>(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(d) % alignof(double), 0u);
}

TEST(Arena, ZeroByteRequestsYieldDistinctPointers) {
  bs::Arena arena;
  void* a = arena.allocate(0);
  void* b = arena.allocate(0);
  EXPECT_NE(a, b);
}

TEST(Arena, ResetReusesBlocksWithoutGrowing) {
  bs::Arena arena(256);
  // Warm up: force a few blocks into existence.
  for (int i = 0; i < 64; ++i) arena.allocate(64, 8);
  const auto blocks = arena.block_count();
  const auto capacity = arena.capacity_bytes();
  EXPECT_GE(blocks, 2u);
  // Steady state: the same allocation pattern after reset() must fit in
  // the warmed blocks — no new blocks, no capacity growth.
  for (int rep = 0; rep < 10; ++rep) {
    arena.reset();
    EXPECT_EQ(arena.used_bytes(), 0u);
    for (int i = 0; i < 64; ++i) arena.allocate(64, 8);
    EXPECT_EQ(arena.block_count(), blocks) << "rep " << rep;
    EXPECT_EQ(arena.capacity_bytes(), capacity) << "rep " << rep;
  }
}

TEST(Arena, ResetReturnsSameAddresses) {
  bs::Arena arena(128);
  void* first = arena.allocate(32, 8);
  arena.reset();
  void* again = arena.allocate(32, 8);
  EXPECT_EQ(first, again);
}

TEST(Arena, LargeAllocationFallback) {
  bs::Arena arena(64);
  // Far larger than the first block or any geometric successor step:
  // must succeed via a dedicated exactly-sized block and be writable.
  const std::size_t big = 1 << 20;
  auto* p = static_cast<char*>(arena.allocate(big, 16));
  ASSERT_NE(p, nullptr);
  p[0] = 'a';
  p[big - 1] = 'z';
  EXPECT_GE(arena.capacity_bytes(), big);
  // Small allocations still work afterwards, and reset() keeps the big
  // block for reuse.
  void* small = arena.allocate(16, 8);
  EXPECT_NE(small, nullptr);
  const auto capacity = arena.capacity_bytes();
  arena.reset();
  auto* p2 = static_cast<char*>(arena.allocate(big, 16));
  ASSERT_NE(p2, nullptr);
  EXPECT_EQ(arena.capacity_bytes(), capacity);
}

TEST(ArenaVector, PushGrowClearReuse) {
  bs::Arena arena;
  bs::ArenaVector<int> v(arena);
  EXPECT_TRUE(v.empty());
  for (int i = 0; i < 100; ++i) v.push_back(i);
  ASSERT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  EXPECT_TRUE(v.contains(42));
  EXPECT_FALSE(v.contains(100));
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.contains(42));
  v.push_back(7);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 7);
}

TEST(ArenaString, AppendAndClear) {
  bs::Arena arena;
  bs::ArenaString s(arena);
  EXPECT_TRUE(s.empty());
  s.append("hello");
  s.push_back(' ');
  s += std::string_view("world");
  EXPECT_EQ(s.view(), "hello world");
  // Force growth past the initial 32-byte slice.
  for (int i = 0; i < 10; ++i) s += std::string("0123456789");
  EXPECT_EQ(s.size(), 11u + 100u);
  s.clear();
  EXPECT_TRUE(s.empty());
  s.append("reuse");
  EXPECT_EQ(s.view(), "reuse");
}

// --------------------------------------------------- crash-safe fs_util

TEST(FsUtil, WriteFileReplacesAtomicallyAndLeavesNoTemp) {
  bs::TempDir tmp;
  auto file = tmp.path() / "atomic.txt";
  bs::write_file(file, "first version\n");
  bs::write_file(file, "second version\n");
  EXPECT_EQ(bs::read_file(file), "second version\n");
  // The temp-then-rename protocol cleans up after itself: only the
  // target remains in the directory.
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(tmp.path())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);
}

TEST(FsUtil, WriteFileCreatesParentDirectories) {
  bs::TempDir tmp;
  auto file = tmp.path() / "a" / "b" / "c.txt";
  bs::write_file(file, "nested\n");
  EXPECT_EQ(bs::read_file(file), "nested\n");
}

TEST(FsUtil, WriteFileToUnwritableDirectoryThrowsAndLeavesNoDebris) {
  bs::TempDir tmp;
  // A directory where the target name should be is not writable-over:
  // the rename fails, the error propagates, and the temp is cleaned up.
  auto blocked = tmp.path() / "blocked";
  bs::ensure_dir(blocked);
  EXPECT_THROW(bs::write_file(blocked, "x"), benchpark::Error);
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(tmp.path())) {
    (void)entry;
    ++entries;
  }
  EXPECT_EQ(entries, 1u);  // just "blocked" itself, no stray temps
}

TEST(FsUtil, EnsureDirIsRaceAndRepeatSafe) {
  bs::TempDir tmp;
  auto dir = tmp.path() / "made" / "deeply";
  bs::ensure_dir(dir);
  bs::ensure_dir(dir);  // second call on an existing dir is a no-op
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  // Concurrent creators of one directory must all succeed.
  auto racy = tmp.path() / "racy";
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&] { bs::ensure_dir(racy / "x" / "y"); });
  }
  for (auto& w : workers) w.join();
  EXPECT_TRUE(std::filesystem::is_directory(racy / "x" / "y"));
  // A file squatting on the path is a real error, not a silent success.
  auto squatter = tmp.path() / "file.txt";
  bs::write_file(squatter, "not a dir");
  EXPECT_THROW(bs::ensure_dir(squatter), benchpark::Error);
}

TEST(FsUtil, AppendFileSyncCreatesAndAppends) {
  bs::TempDir tmp;
  auto file = tmp.path() / "journal.log";
  bs::append_file_sync(file, "one\n");
  bs::append_file_sync(file, "two\n");
  EXPECT_EQ(bs::read_file(file), "one\ntwo\n");
  // Appends interleave with atomic rewrites without losing bytes.
  bs::write_file(file, "reset\n");
  bs::append_file_sync(file, "three\n");
  EXPECT_EQ(bs::read_file(file), "reset\nthree\n");
}

TEST(FsUtil, AppendFileSyncCreatesMissingParents) {
  // Like write_file, append creates intermediate directories on demand so
  // journal appends never race directory setup.
  bs::TempDir tmp;
  const auto target = tmp.path() / "no" / "such" / "dir" / "f";
  bs::append_file_sync(target, "x");
  EXPECT_EQ(bs::read_file(target), "x");
}

TEST(FsUtil, AppendFileSyncToBlockedParentThrows) {
  // A regular file squatting where a parent directory must go is a real
  // error, not something ensure_dir may silently paper over.
  bs::TempDir tmp;
  bs::write_file(tmp.path() / "blocker", "file");
  EXPECT_THROW(
      bs::append_file_sync(tmp.path() / "blocker" / "f", "x"),
      benchpark::Error);
}

// ------------------------------------------------------------ ShardedCache

namespace {

struct CountedTraits {
  using Hash = bs::TransparentStringHash;
  static std::uint64_t weight(int) { return 1; }
  static constexpr bs::CacheCounterNames kCounters{
      "test.cache.hits", "test.cache.misses", "test.cache.inserts",
      "test.cache.evictions", "test.cache.invalidations"};
};

}  // namespace

TEST(ShardedCache, ThrowingComputeReleasesTheClaimToWaiters) {
  // The first claim's compute throws while later callers wait on the
  // same key: one waiter must claim it and compute, the others take that
  // result as hits, and the counters stay exact.
  bs::ShardedCache<int, CountedTraits> cache;
  constexpr int kWaiters = 7;
  std::atomic<int> computes{0};
  std::atomic<int> waiting{0};
  std::atomic<bool> claimed{false};
  auto compute = [&] {
    if (computes.fetch_add(1) == 0) {
      claimed.store(true);
      while (waiting.load() < kWaiters) std::this_thread::yield();
      // Let the waiters block on the claim before it fails.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      throw std::runtime_error("first compute fails");
    }
    return 42;
  };

  std::atomic<int> failures{0};
  std::thread first([&] {
    try {
      (void)cache.get_or_compute("key", compute);
    } catch (const std::runtime_error&) {
      failures.fetch_add(1);
    }
  });
  while (!claimed.load()) std::this_thread::yield();
  std::vector<int> values(kWaiters, 0);
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      waiting.fetch_add(1);
      values[static_cast<std::size_t>(w)] =
          cache.get_or_compute("key", compute).value;
    });
  }
  first.join();
  for (auto& t : waiters) t.join();

  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(computes.load(), 2);
  for (int v : values) EXPECT_EQ(v, 42);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // the failed claim and the retry
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::size_t>(kWaiters) - 1);
  EXPECT_EQ(stats.lookups(), static_cast<std::size_t>(kWaiters) + 1);
  EXPECT_EQ(cache.size(), 1u);
}

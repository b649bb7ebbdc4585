// Tests for the YAML subset parser/emitter against the exact config shapes
// the paper uses (Figures 3, 4, 9, 10, 12).
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "src/support/error.hpp"
#include "src/yaml/emitter.hpp"
#include "src/yaml/node.hpp"
#include "src/yaml/parser.hpp"

namespace yaml = benchpark::yaml;

TEST(YamlParser, EmptyDocumentIsNull) {
  EXPECT_TRUE(yaml::parse("").is_null());
  EXPECT_TRUE(yaml::parse("   \n# only a comment\n").is_null());
}

TEST(YamlParser, ScalarDocument) {
  auto n = yaml::parse("hello");
  ASSERT_TRUE(n.is_scalar());
  EXPECT_EQ(n.as_string(), "hello");
}

TEST(YamlParser, DeepFlowNestingThrowsInsteadOfOverflowing) {
  // 100,000 nested flow sequences once overflowed the parser's stack.
  constexpr std::size_t kDepth = 100000;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(yaml::parse("a: " + std::string(kDepth, '[') +
                           std::string(kDepth, ']')),
               benchpark::YamlError);
  std::string mappings = "a: ";
  for (std::size_t i = 0; i < kDepth; ++i) mappings += "{b: ";
  try {
    (void)yaml::parse("x: 1\n" + mappings);
    ADD_FAILURE() << "deep flow mappings parsed";
  } catch (const benchpark::YamlError& e) {
    EXPECT_NE(std::string(e.what()).find("yaml:2:"), std::string::npos)
        << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
  // Modest nesting still parses.
  auto node = yaml::parse("a: " + std::string(100, '[') + "1" +
                          std::string(100, ']'));
  EXPECT_TRUE(node.at("a").is_sequence());
}

TEST(YamlParser, SimpleMapping) {
  auto n = yaml::parse("key: value\nother: 2\n");
  ASSERT_TRUE(n.is_mapping());
  EXPECT_EQ(n.at("key").as_string(), "value");
  EXPECT_EQ(n.at("other").as_int(), 2);
}

TEST(YamlParser, NestedMapping) {
  auto n = yaml::parse(
      "spack:\n"
      "  concretizer:\n"
      "    unify: true\n"
      "  view: true\n");
  EXPECT_TRUE(n.path("spack.concretizer.unify").as_bool());
  EXPECT_TRUE(n.path("spack.view").as_bool());
}

TEST(YamlParser, BlockSequenceOfScalars) {
  auto n = yaml::parse("items:\n  - a\n  - b\n  - c\n");
  ASSERT_TRUE(n.at("items").is_sequence());
  EXPECT_EQ(n.at("items").as_string_list(),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(YamlParser, SequenceAtSameIndentAsKey) {
  // Spack configs commonly write the dash at the key's own indent level.
  auto n = yaml::parse("specs:\n- amg2023+caliper\n- saxpy\n");
  EXPECT_EQ(n.at("specs").size(), 2u);
  EXPECT_EQ(n.at("specs").items()[0].as_string(), "amg2023+caliper");
}

TEST(YamlParser, FlowSequence) {
  auto n = yaml::parse("compilers: [gcc1211, intel202160classic]\n");
  EXPECT_EQ(n.at("compilers").as_string_list(),
            (std::vector<std::string>{"gcc1211", "intel202160classic"}));
}

TEST(YamlParser, FlowSequenceOfQuotedStrings) {
  auto n = yaml::parse("processes_per_node: ['8', '4']\n");
  EXPECT_EQ(n.at("processes_per_node").as_string_list(),
            (std::vector<std::string>{"8", "4"}));
}

TEST(YamlParser, EmptyFlowSequence) {
  auto n = yaml::parse("xs: []\n");
  ASSERT_TRUE(n.at("xs").is_sequence());
  EXPECT_EQ(n.at("xs").size(), 0u);
}

TEST(YamlParser, NestedFlowSequence) {
  auto n = yaml::parse("m: [[a, b], [c]]\n");
  ASSERT_EQ(n.at("m").size(), 2u);
  EXPECT_EQ(n.at("m").items()[0].as_string_list(),
            (std::vector<std::string>{"a", "b"}));
}

TEST(YamlParser, SequenceOfMappings) {
  // The externals shape from Figure 4.
  auto n = yaml::parse(
      "packages:\n"
      "  mpi:\n"
      "    externals:\n"
      "    - spec: mvapich2@2.3.7-gcc12.1.1-magic\n"
      "      prefix: /path/to/mvapich2\n"
      "    buildable: false\n");
  const auto& externals = n.path("packages.mpi.externals");
  ASSERT_TRUE(externals.is_sequence());
  ASSERT_EQ(externals.size(), 1u);
  EXPECT_EQ(externals.items()[0].at("spec").as_string(),
            "mvapich2@2.3.7-gcc12.1.1-magic");
  EXPECT_EQ(externals.items()[0].at("prefix").as_string(),
            "/path/to/mvapich2");
  EXPECT_FALSE(n.path("packages.mpi.buildable").as_bool());
}

TEST(YamlParser, QuotedScalarsPreserveType) {
  auto n = yaml::parse("n_ranks: '8'\nbatch_time: \"120\"\n");
  EXPECT_EQ(n.at("n_ranks").as_string(), "8");
  EXPECT_EQ(n.at("batch_time").as_string(), "120");
}

TEST(YamlParser, SingleQuoteEscaping) {
  auto n = yaml::parse("msg: 'it''s fine'\n");
  EXPECT_EQ(n.at("msg").as_string(), "it's fine");
}

TEST(YamlParser, CommentsStripped) {
  auto n = yaml::parse(
      "# header comment\n"
      "key: value  # trailing\n"
      "url: http://example.com/#anchor\n");
  EXPECT_EQ(n.at("key").as_string(), "value");
  // '#' without preceding space is not a comment.
  EXPECT_EQ(n.at("url").as_string(), "http://example.com/#anchor");
}

TEST(YamlParser, ValueWithColonInside) {
  auto n = yaml::parse("mpi_command: 'srun -N {n_nodes} -n {n_ranks}'\n");
  EXPECT_EQ(n.at("mpi_command").as_string(), "srun -N {n_nodes} -n {n_ranks}");
}

TEST(YamlParser, EmptyValueIsNull) {
  auto n = yaml::parse("key:\nafter: 1\n");
  EXPECT_TRUE(n.at("key").is_null());
  EXPECT_EQ(n.at("after").as_int(), 1);
}

TEST(YamlParser, DuplicateKeyThrows) {
  EXPECT_THROW(yaml::parse("a: 1\na: 2\n"), benchpark::YamlError);
}

TEST(YamlParser, TabsRejected) {
  EXPECT_THROW(yaml::parse("a:\n\tb: 1\n"), benchpark::YamlError);
}

TEST(YamlParser, AnchorsRejected) {
  EXPECT_THROW(yaml::parse("a: 1\n&anchor\n"), benchpark::YamlError);
}

TEST(YamlParser, BlockScalarRejected) {
  EXPECT_THROW(yaml::parse("a: |\n  text\n"), benchpark::YamlError);
}

TEST(YamlParser, UnterminatedFlowThrows) {
  EXPECT_THROW(yaml::parse("a: [1, 2\n"), benchpark::YamlError);
}

TEST(YamlParser, ErrorsCarryLineNumbers) {
  try {
    yaml::parse("ok: 1\nbad: |\n");
    FAIL() << "expected YamlError";
  } catch (const benchpark::YamlError& e) {
    EXPECT_NE(std::string(e.what()).find("yaml:2"), std::string::npos);
  }
}

TEST(YamlParser, Figure3SpackYaml) {
  // Figure 3 from the paper, verbatim.
  auto n = yaml::parse(
      "spack:\n"
      "  specs: [amg2023+caliper]\n"
      "  concretizer:\n"
      "    unify: true\n"
      "  view: true\n");
  EXPECT_EQ(n.path("spack.specs").as_string_list(),
            (std::vector<std::string>{"amg2023+caliper"}));
  EXPECT_TRUE(n.path("spack.concretizer.unify").as_bool());
}

TEST(YamlParser, Figure10RambleYamlShape) {
  auto n = yaml::parse(
      "ramble:\n"
      "  include:\n"
      "  - ./configs/spack.yaml\n"
      "  - ./configs/variables.yaml\n"
      "  config:\n"
      "    deprecated: true\n"
      "    spack_flags:\n"
      "      install: '--add --keep-stage'\n"
      "      concretize: '-U -f'\n"
      "  applications:\n"
      "    saxpy:\n"
      "      workloads:\n"
      "        problem:\n"
      "          env_vars:\n"
      "            set:\n"
      "              OMP_NUM_THREADS: '{n_threads}'\n"
      "          variables:\n"
      "            n_ranks: '8'\n"
      "          experiments:\n"
      "            saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}:\n"
      "              variables:\n"
      "                processes_per_node: ['8', '4']\n"
      "                n_nodes: ['1', '2']\n"
      "                n_threads: ['2', '4']\n"
      "                n: ['512', '1024']\n"
      "              matrices:\n"
      "              - size_threads:\n"
      "                - n\n"
      "                - n_threads\n");
  EXPECT_EQ(n.path("ramble.include").size(), 2u);
  EXPECT_EQ(n.path("ramble.config.spack_flags.install").as_string(),
            "--add --keep-stage");
  const auto& exp = n.path(
      "ramble.applications.saxpy.workloads.problem.experiments");
  ASSERT_TRUE(exp.is_mapping());
  const auto& e = exp.at("saxpy_{n}_{n_nodes}_{n_ranks}_{n_threads}");
  EXPECT_EQ(e.path("variables.n").as_string_list(),
            (std::vector<std::string>{"512", "1024"}));
  const auto& matrices = e.at("matrices");
  ASSERT_EQ(matrices.size(), 1u);
  EXPECT_EQ(matrices.items()[0].at("size_threads").as_string_list(),
            (std::vector<std::string>{"n", "n_threads"}));
}

TEST(YamlEmitter, RoundTripScalarMap) {
  auto original = yaml::parse("a: x\nb: 'with: colon'\nc: [1, 2]\n");
  auto text = yaml::emit(original);
  auto reparsed = yaml::parse(text);
  EXPECT_TRUE(original == reparsed);
}

TEST(YamlEmitter, RoundTripSequenceOfMaps) {
  auto original = yaml::parse(
      "externals:\n"
      "- spec: mkl@2022.1.0\n"
      "  prefix: /opt/mkl\n"
      "- spec: mvapich2@2.3.7\n"
      "  prefix: /opt/mvapich2\n");
  auto reparsed = yaml::parse(yaml::emit(original));
  EXPECT_TRUE(original == reparsed);
}

TEST(YamlEmitter, RoundTripDeepNesting) {
  auto original = yaml::parse(
      "ramble:\n"
      "  applications:\n"
      "    saxpy:\n"
      "      workloads:\n"
      "        problem:\n"
      "          variables:\n"
      "            n: ['512', '1024']\n");
  auto reparsed = yaml::parse(yaml::emit(original));
  EXPECT_TRUE(original == reparsed);
}

TEST(YamlEmitter, QuotesAmbiguousScalars) {
  yaml::Node n = yaml::Node::make_mapping();
  n["a"] = yaml::Node("true");   // would parse as bool keyword
  n["b"] = yaml::Node("x: y");   // embedded colon-space
  n["c"] = yaml::Node("");       // empty
  auto text = yaml::emit(n);
  auto reparsed = yaml::parse(text);
  EXPECT_EQ(reparsed.at("a").as_string(), "true");
  EXPECT_EQ(reparsed.at("b").as_string(), "x: y");
  EXPECT_EQ(reparsed.at("c").as_string(), "");
}

TEST(YamlEmitter, QuoteNumericOption) {
  yaml::Node n = yaml::Node::make_mapping();
  n["n_ranks"] = yaml::Node("8");
  yaml::EmitOptions opts;
  opts.quote_numeric_strings = true;
  EXPECT_NE(yaml::emit(n, opts).find("'8'"), std::string::npos);
}

TEST(YamlNode, PathLookupMissingReturnsNull) {
  auto n = yaml::parse("a:\n  b: 1\n");
  EXPECT_TRUE(n.path("a.c").is_null());
  EXPECT_TRUE(n.path("x.y.z").is_null());
  EXPECT_EQ(n.path("a.b").as_int(), 1);
}

TEST(YamlNode, AsStringListFromScalar) {
  yaml::Node n("single");
  EXPECT_EQ(n.as_string_list(), (std::vector<std::string>{"single"}));
}

TEST(YamlNode, TypeErrorsThrow) {
  auto n = yaml::parse("a: [1]\n");
  EXPECT_THROW((void)n.at("a").as_string(), benchpark::YamlError);
  EXPECT_THROW((void)n.as_string(), benchpark::YamlError);
  EXPECT_THROW((void)yaml::Node("x").as_bool(), benchpark::YamlError);
}

TEST(YamlNode, OrderPreserved) {
  auto n = yaml::parse("z: 1\na: 2\nm: 3\n");
  std::vector<std::string> keys;
  for (const auto& [k, v] : n.map()) keys.push_back(k);
  EXPECT_EQ(keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(YamlNode, EmptyMappingFlowSyntax) {
  auto n = yaml::parse("build: {}\n");
  EXPECT_TRUE(n.at("build").is_mapping());
  EXPECT_EQ(n.at("build").size(), 0u);
}

// ----------------------------------------------- round-trip property test
//
// parse(emit(n)) == n over the full corpus of ambiguous scalars: values
// that look like numbers, booleans, null, or dates; strings carrying ':',
// '#', quotes, control characters, or indicator-leading characters; and
// strings with leading/trailing whitespace. The emitter must quote (or
// escape) exactly enough that the parser reads back the same string.

namespace {

const std::vector<std::string>& ambiguous_corpus() {
  static const std::vector<std::string> corpus = {
      // empty / whitespace
      std::string(""), " ", "  leading", "trailing  ", "\tindent", " x ",
      // numbers (string-typed scalars must stay strings byte-for-byte)
      "8", "-0", "3.14", "1e10", "0x1f", "007", "+42", ".5", "1_000",
      // boolean / null keywords in every casing the parser accepts
      "true", "false", "True", "FALSE", "yes", "no", "on", "off", "~",
      "null", "Null", "NULL",
      // dates (a typed reader would otherwise turn these into timestamps)
      "2023-01-01", "2023-01-01 12:00", "2023-01-01T00:00:00Z",
      "1999-12-31",
      // colon / comment traps
      "a: b", "a:b", ": start", "ends with colon:", "x #comment",
      "#leading", "a # trailing", "http://example.com/x", " # both",
      // flow / block indicators
      "- dash", "-", "---", "[", "]", "{", "}", "[1, 2]", "{a: b}",
      ", comma", "? question", "&anchor", "*alias", "!tag", "|block",
      ">fold", "%directive", "@at", "`tick",
      // quoting characters
      "'single'", "\"double\"", "it's", "say \"hi\"", "mix '\" both",
      "back\\slash", "\\n not a newline",
      // control characters (force the double-quoted escape style)
      std::string("line\nbreak"), std::string("tab\there"),
      std::string("\r carriage"), std::string(1, '\x01'),
      std::string(1, '\x7f'), std::string("bell\x07"),
      std::string("multi\nline\nvalue\n"),
  };
  return corpus;
}

}  // namespace

TEST(YamlEmitter, RoundTripAmbiguousValues) {
  for (const auto& s : ambiguous_corpus()) {
    yaml::Node n = yaml::Node::make_mapping();
    n["v"] = yaml::Node(s);
    auto text = yaml::emit(n);
    yaml::Node reparsed;
    ASSERT_NO_THROW(reparsed = yaml::parse(text))
        << "value: " << s << "\nemitted: " << text;
    ASSERT_TRUE(reparsed.is_mapping()) << "value: " << s;
    ASSERT_TRUE(reparsed.at("v").is_scalar())
        << "value: " << s << "\nemitted: " << text;
    EXPECT_EQ(reparsed.at("v").as_string(), s)
        << "emitted: " << text;
  }
}

TEST(YamlEmitter, RoundTripAmbiguousSequenceItems) {
  yaml::Node n = yaml::Node::make_sequence();
  for (const auto& s : ambiguous_corpus()) n.push_back(yaml::Node(s));
  auto reparsed = yaml::parse(yaml::emit(n));
  ASSERT_TRUE(reparsed.is_sequence());
  ASSERT_EQ(reparsed.size(), ambiguous_corpus().size());
  for (std::size_t i = 0; i < reparsed.size(); ++i) {
    EXPECT_EQ(reparsed.items()[i].as_string(), ambiguous_corpus()[i]) << i;
  }
}

TEST(YamlEmitter, RoundTripAmbiguousKeys) {
  for (const auto& s : ambiguous_corpus()) {
    yaml::Node n = yaml::Node::make_mapping();
    n[s] = yaml::Node("value");
    auto text = yaml::emit(n);
    yaml::Node reparsed;
    ASSERT_NO_THROW(reparsed = yaml::parse(text))
        << "key: " << s << "\nemitted: " << text;
    ASSERT_TRUE(reparsed.is_mapping()) << "key: " << s;
    ASSERT_TRUE(reparsed.has(s))
        << "key: " << s << "\nemitted: " << text;
    EXPECT_EQ(reparsed.at(s).as_string(), "value");
  }
}

TEST(YamlEmitter, RoundTripEmptyContainers) {
  auto original = yaml::parse(
      "empty_map: {}\n"
      "empty_seq: []\n"
      "seq_of_empties:\n"
      "- {}\n"
      "- []\n"
      "nested:\n"
      "  inner: {}\n");
  auto text = yaml::emit(original);
  auto reparsed = yaml::parse(text);
  EXPECT_TRUE(original == reparsed) << text;
  EXPECT_TRUE(reparsed.at("seq_of_empties").items()[0].is_mapping());
  EXPECT_TRUE(reparsed.at("seq_of_empties").items()[1].is_sequence());
}

TEST(YamlEmitter, RoundTripQuotedKeysWithEscapes) {
  // Keys containing the quote characters themselves exercise the
  // parser's escape-aware quoted-key scan.
  for (const std::string key :
       {"it's", "a 'quoted' part", "say \"hi\"", "both '\" quotes",
        "key: colon", "key\nnewline", "key\\backslash"}) {
    yaml::Node n = yaml::Node::make_mapping();
    n[key] = yaml::Node("v");
    auto text = yaml::emit(n);
    auto reparsed = yaml::parse(text);
    ASSERT_TRUE(reparsed.has(key)) << "emitted: " << text;
    EXPECT_EQ(reparsed.at(key).as_string(), "v");
  }
}

TEST(YamlEmitter, EmitIsIdempotent) {
  // emit(parse(emit(n))) == emit(n): the emitted form is a fixed point,
  // so persisted documents do not churn across rewrite cycles.
  yaml::Node n = yaml::Node::make_mapping();
  for (std::size_t i = 0; i < ambiguous_corpus().size(); ++i) {
    n["k" + std::to_string(i)] = yaml::Node(ambiguous_corpus()[i]);
  }
  auto once = yaml::emit(n);
  auto twice = yaml::emit(yaml::parse(once));
  EXPECT_EQ(once, twice);
}

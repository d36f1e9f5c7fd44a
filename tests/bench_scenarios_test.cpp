// The checked-in bench scenarios (scenarios/t5_multitenant.drlsc,
// t6_qos.drlsc, t7_faults.drlsc) and their DNN traces. table5, table6,
// table7, train_parallel and perf_smoke load these files, so their content
// hashes pin every bench result: the expected values below are the hashes
// of the hand-built C++ scenarios the files replaced, at full scale and
// with the `--smoke` overrides the benches apply.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "scenario/scenario_io.h"
#include "trace/generators.h"
#include "trace/trace_io.h"
#include "util/config.h"

namespace drlnoc {
namespace {

const std::string kDir = DRLNOC_SCENARIO_DIR;

std::string hash_of(const std::string& file,
                    const std::map<std::string, std::string>& overrides) {
  return util::parse_text_file(
      kDir + "/" + file, "scenario",
      [&](const std::string& text, const std::string& dir) {
        return scenario::content_hash_hex(
            scenario::ScenarioReader::read_text(text, dir, overrides));
      });
}

TEST(BenchScenarios, ContentHashesMatchTheFormerBuilders) {
  const std::map<std::string, std::string> dnn_smoke = {
      {"size", "4"}, {"tenant0.trace", "dnn16_b2.drltrc"}};
  std::map<std::string, std::string> t6_smoke = dnn_smoke;
  t6_smoke["tenant0.p95_target"] = "200";

  EXPECT_EQ(hash_of("t5_multitenant.drlsc", {}), "d386ff4d42dd277f");
  EXPECT_EQ(hash_of("t5_multitenant.drlsc", dnn_smoke), "499abb779b071c76");
  EXPECT_EQ(hash_of("t6_qos.drlsc", {}), "2a4120441bd7a8d8");
  EXPECT_EQ(hash_of("t6_qos.drlsc", t6_smoke), "c57ee93ce44f7888");
  EXPECT_EQ(hash_of("t7_faults.drlsc", {}), "83cf9c51d3c58db3");
  EXPECT_EQ(hash_of("t7_faults.drlsc",
                    {{"size", "4"}, {"tenant0.p95_target", "200"}}),
            "745409604b23507f");
}

TEST(BenchScenarios, TracesAreTheDnnPipelineGenerator) {
  for (const int batches : {2, 4}) {
    SCOPED_TRACE(batches);
    trace::DnnPipelineParams p;
    p.nodes = 16;
    p.batches = batches;
    std::ostringstream generated;
    trace::TraceWriter::write_text(generated, trace::generate_dnn_pipeline(p));
    const auto file = util::read_text_file(
        kDir + "/dnn16_b" + std::to_string(batches) + ".drltrc");
    ASSERT_TRUE(file.has_value());
    EXPECT_EQ(file->text, generated.str());
  }
}

}  // namespace
}  // namespace drlnoc

// Documentation contract for the service protocol: DESIGN.md's protocol
// reference must describe exactly the request table ExperimentService
// dispatches from.  The canonical line in DESIGN.md looks like
//
//   Requests: `run`, `run-batch`, ... `shutdown`.
//
// and this test diffs its backticked names against
// ExperimentService::request_names() both ways, so adding a request without
// documenting it (or documenting one that does not exist) fails CI.  Each
// request's `### \`name\`` field table is diffed against that row's fields,
// and every Prometheus metric family and trace stage name must be named.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "service/metrics.hpp"
#include "service/service.hpp"
#include "service/trace.hpp"

namespace vlcsa::service {
namespace {

std::filesystem::path design_md_path() {
  return std::filesystem::path(__FILE__).parent_path() / ".." / ".." / "DESIGN.md";
}

std::string design_md() {
  std::ifstream in(design_md_path());
  EXPECT_TRUE(in.is_open()) << "cannot open " << design_md_path();
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The fields a `### \`name\`` section's table documents: the backticked
/// first cell of each `| \`field\` | ...` row up to the next heading, minus
/// the `request` envelope field (a section with no table documents none).
std::set<std::string> documented_fields(const std::string& contents, const std::string& name) {
  std::set<std::string> fields;
  const std::size_t heading = contents.find("### `" + name + "`");
  if (heading == std::string::npos) return fields;
  const std::size_t end = contents.find("\n#", heading + 1);
  std::istringstream section(contents.substr(heading, end - heading));
  std::string line;
  while (std::getline(section, line)) {
    if (line.rfind("| `", 0) != 0) continue;
    const std::string field = line.substr(3, line.find('`', 3) - 3);
    if (field != "request") fields.insert(field);
  }
  return fields;
}

/// The backticked names on the first line of DESIGN.md starting "Requests:".
std::vector<std::string> documented_request_names() {
  std::ifstream in(design_md_path());
  EXPECT_TRUE(in.is_open()) << "cannot open " << design_md_path();
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Requests: ", 0) != 0) continue;
    std::vector<std::string> names;
    std::size_t pos = 0;
    while ((pos = line.find('`', pos)) != std::string::npos) {
      const std::size_t end = line.find('`', pos + 1);
      if (end == std::string::npos) break;
      names.push_back(line.substr(pos + 1, end - pos - 1));
      pos = end + 1;
    }
    return names;
  }
  return {};
}

TEST(ProtocolDoc, DesignMdListsExactlyTheDispatchedRequests) {
  const std::vector<std::string> documented = documented_request_names();
  ASSERT_FALSE(documented.empty())
      << "DESIGN.md has no 'Requests: ...' line with backticked request names";
  const std::vector<std::string> dispatched = ExperimentService::request_names();

  const std::set<std::string> documented_set(documented.begin(), documented.end());
  const std::set<std::string> dispatched_set(dispatched.begin(), dispatched.end());
  EXPECT_EQ(documented_set, dispatched_set)
      << "DESIGN.md's request list and ExperimentService's request table differ";
  // No duplicates in the documentation line either.
  EXPECT_EQ(documented.size(), documented_set.size());
}

TEST(ProtocolDoc, EveryDispatchedRequestHasAFieldTableHeading) {
  // Each request type gets its own `### \`name\`` subsection in DESIGN.md's
  // protocol reference (field table + errors).
  std::ifstream in(design_md_path());
  ASSERT_TRUE(in.is_open());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  for (const std::string& name : ExperimentService::request_names()) {
    EXPECT_NE(contents.find("### `" + name + "`"), std::string::npos)
        << "DESIGN.md lacks a '### `" << name << "`' protocol subsection";
  }
}

TEST(ProtocolDoc, EachRequestSectionTablesExactlyItsFields) {
  const std::string contents = design_md();
  for (const ExperimentService::RequestType& row : ExperimentService::request_table()) {
    const std::string name(row.name);
    const std::set<std::string> fields(row.fields.begin(), row.fields.end());
    EXPECT_EQ(documented_fields(contents, name), fields)
        << "DESIGN.md's '### `" << name << "`' field table and the request table differ";
  }
}

TEST(ProtocolDoc, EveryMetricFamilyAndStageIsDocumented) {
  const std::string contents = design_md();
  const ServiceMetrics metrics(ExperimentService::request_names());
  std::istringstream exposition(render_prometheus_text(metrics.snapshot(), CacheStats{}));
  std::string line;
  std::size_t families = 0;
  while (std::getline(exposition, line)) {
    if (line.rfind("# TYPE ", 0) != 0) continue;
    const std::string family = line.substr(7, line.find(' ', 7) - 7);
    ++families;
    EXPECT_TRUE(contents.find("`" + family + "`") != std::string::npos ||
                contents.find("`" + family + "{") != std::string::npos)
        << "DESIGN.md's metrics-prom reference lacks `" << family << "`";
  }
  EXPECT_GT(families, 0u);
  for (std::size_t i = 0; i < kStageCount; ++i) {
    const std::string stage = stage_name(static_cast<Stage>(i));
    EXPECT_NE(contents.find("`" + stage + "`"), std::string::npos)
        << "DESIGN.md does not name the `" << stage << "` trace stage";
  }
}

TEST(ProtocolDoc, TraceEnvelopeFieldsAreDocumented) {
  // The request-envelope observability fields ("trace", "trace_id") and the
  // echoed reply fields ride every request type, so they are documented once
  // in the protocol reference rather than per request — but they must be
  // documented.
  std::ifstream in(design_md_path());
  ASSERT_TRUE(in.is_open());
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  for (const char* needle : {"`trace`", "`trace_id`", "`spans`"}) {
    EXPECT_NE(contents.find(needle), std::string::npos)
        << "DESIGN.md does not document the " << needle << " envelope field";
  }
}

}  // namespace
}  // namespace vlcsa::service

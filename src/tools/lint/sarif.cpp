#include <sstream>

#include "tools/lint/lint.hpp"
#include "util/json.hpp"

// SARIF 2.1.0 emission. Hand-rolled writer: the log is one static shape
// (single run, one result per finding, rule metadata from rules()), so a
// string builder with util/json's escaper is simpler than threading a DOM
// through. tests/tools_lint_test.cpp round-trips the output through
// util/json to keep it well-formed.
namespace qoslb::lint {

using json::escape;

std::string sarif(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"qoslb-lint\",\n"
      << "          \"informationUri\": \"docs/static-analysis.md\",\n"
      << "          \"rules\": [\n";
  const std::vector<RuleInfo>& all = rules();
  for (std::size_t i = 0; i < all.size(); ++i) {
    out << "            {\"id\": \"" << escape(all[i].id)
        << "\", \"shortDescription\": {\"text\": \"" << escape(all[i].summary)
        << "\"}}" << (i + 1 < all.size() ? "," : "") << '\n';
  }
  out << "          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::string message = f.message;
    if (!f.why.empty()) {
      message += " [call path:";
      for (const std::string& step : f.why) message += " " + step + ";";
      message.back() = ']';
    }
    out << "        {\n"
        << "          \"ruleId\": \"" << escape(f.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << escape(message)
        << "\"},\n"
        << "          \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \""
        << escape(f.file) << "\"}, \"region\": {\"startLine\": "
        << (f.line > 0 ? f.line : 1) << "}}}]\n"
        << "        }" << (i + 1 < findings.size() ? "," : "") << '\n';
  }
  out << "      ]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace qoslb::lint

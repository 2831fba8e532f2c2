#include <map>
#include <set>
#include <string>

#include "tools/lint/rules.hpp"

namespace qoslb::lint {

namespace {

/// Structs serialized by the checkpoint codec rather than by member hooks
/// of their own. Matched by name, so each entry must name a struct or class
/// template defined under src/; rules_snapshot reports one that does not.
const std::set<std::string>& table_audited() {
  static const std::set<std::string> kStructs = {
      "BasicState", "EngineConfig", "ChurnTracker",
      "SnapshotV1", "Counters",     "ChurnStats",
  };
  return kStructs;
}

/// The checkpoint codec: the free pair, the model section it shares with
/// instance files (core/io/instance_io.cpp), and the (keyword, member) field
/// lists of the counters and churn blocks. Their string literals are the
/// checkpoint's keywords.
const std::set<std::string>& checkpoint_codec() {
  static const std::set<std::string> kFunctions = {
      "write_snapshot", "read_snapshot", "write_model", "read_model",
      "for_each_field",
  };
  return kFunctions;
}

/// The serialized name a member maps to: the as(...) annotation if present,
/// else the member name with one trailing underscore stripped.
std::string serialized_key(const FieldDef& field) {
  if (!field.serialized_as.empty()) return field.serialized_as;
  std::string key = field.name;
  if (!key.empty() && key.back() == '_') key.pop_back();
  return key;
}

/// Member coverage: every persistent member of `s` maps to a keyword its
/// serializer names.
void audit_struct(const Context& ctx, const StructDef& s,
                  const std::set<std::string>& keywords,
                  const std::string& serializer, std::vector<Finding>& out) {
  for (const FieldDef& field : s.fields) {
    if (field.transient) continue;
    const std::string key = serialized_key(field);
    if (keywords.count(key) != 0) continue;
    out.push_back(
        {"QL014", ctx.tree.files[s.file].rel, field.line,
         "member '" + field.name + "' of " + s.name + " is not written by " +
             serializer + " (no '" + key +
             "' field) and not annotated '// qoslb-snapshot: transient' — a "
             "checkpoint restore would silently lose it (use "
             "'// qoslb-snapshot: as(name)' when the on-disk field is named "
             "differently)"});
  }
}

}  // namespace

void rules_snapshot(const Context& ctx, std::vector<Finding>& out) {
  // Keywords off the raw view (string literals carry the on-disk names):
  // per owning struct for the member hooks (out-of-line via the qualifier,
  // or inline via line containment, so a pair may span files), and one set
  // for the checkpoint codec.
  std::map<std::string, std::set<std::string>> hook_keywords;
  std::set<std::string> codec_keywords;
  bool codec_seen = false;
  const FunctionDef* writer = nullptr;  // the checkpoint's write_snapshot
  for (const FunctionDef& fn : ctx.symbols.functions()) {
    std::set<std::string>* keywords = nullptr;
    if (checkpoint_codec().count(fn.name) != 0) {
      keywords = &codec_keywords;
      codec_seen = true;
      if (fn.name == "write_snapshot" && writer == nullptr) writer = &fn;
    } else if (fn.name == "snapshot_write" || fn.name == "snapshot_read") {
      std::string owner = fn.qualifier;
      if (owner.empty()) {
        const StructDef* s =
            ctx.symbols.enclosing_struct(fn.file, fn.begin_line);
        if (s == nullptr) continue;
        owner = s->name;
      }
      keywords = &hook_keywords[owner];
    } else {
      continue;
    }
    const SourceFile& f = ctx.tree.files[fn.file];
    const std::set<std::string> literals = string_literal_fields(
        join_range(f.raw, DefRange{fn.begin_line, fn.end_line}));
    keywords->insert(literals.begin(), literals.end());
  }

  std::set<std::string> defined;
  for (const StructDef& s : ctx.symbols.structs()) {
    defined.insert(s.name);
    const auto hooks = hook_keywords.find(s.name);
    if (hooks != hook_keywords.end()) {
      audit_struct(ctx, s, hooks->second,
                   s.name + "::snapshot_write/snapshot_read", out);
    } else if (codec_seen && table_audited().count(s.name) != 0) {
      audit_struct(ctx, s, codec_keywords, "the checkpoint codec", out);
    }
  }

  // A table entry that names no struct would be skipped without a word, so
  // a rename would end its audit silently. Reported where the checkpoint is
  // written: a tree without write_snapshot has no table to keep.
  if (writer == nullptr) return;
  for (const std::string& name : table_audited()) {
    if (defined.count(name) != 0) continue;
    out.push_back(
        {"QL014", ctx.tree.files[writer->file].rel, writer->begin_line,
         "QL014's checkpoint-codec table names '" + name +
             "', but no struct or class of that name is defined under src/ "
             "— its members go unaudited (after a rename, update "
             "table_audited() in src/tools/lint/rules_snapshot.cpp)"});
  }
}

}  // namespace qoslb::lint

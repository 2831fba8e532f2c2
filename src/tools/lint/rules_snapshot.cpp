#include <map>
#include <set>
#include <string>

#include "tools/lint/rules.hpp"

namespace qoslb::lint {

namespace {

/// Structs serialized by the free checkpoint functions
/// (write_snapshot/read_snapshot in core/snapshot.cpp) rather than by member
/// hooks of their own. Their field vocabulary is the union of every field
/// keyword those functions emit.
const std::set<std::string>& table_audited() {
  static const std::set<std::string> kStructs = {
      "State",      "EngineConfig", "ChurnTracker",
      "SnapshotV1", "Counters",     "ChurnStats",
  };
  return kStructs;
}

/// Field keywords written/read inside one function definition, off the raw
/// view (string literals carry the on-disk field names).
std::set<std::string> def_fields(const Context& ctx, const FunctionDef& fn) {
  const SourceFile& f = ctx.tree.files[fn.file];
  return string_literal_fields(
      join_range(f.raw, DefRange{fn.begin_line, fn.end_line}));
}

/// The serialized name a member maps to: the as(...) annotation if present,
/// else the member name with one trailing underscore stripped.
std::string serialized_key(const FieldDef& field) {
  if (!field.serialized_as.empty()) return field.serialized_as;
  std::string key = field.name;
  if (!key.empty() && key.back() == '_') key.pop_back();
  return key;
}

/// One serializer pair: a struct's snapshot_write/snapshot_read member
/// hooks, or the free checkpoint functions write_snapshot/read_snapshot.
/// Each half's field set is the union over its definitions; the first
/// definition of a half anchors that half's findings.
struct SerializerPair {
  std::string owner;  // empty for the free pair
  std::set<std::string> written;
  std::set<std::string> read;
  const FunctionDef* writer = nullptr;
  const FunctionDef* reader = nullptr;

  std::string writer_name() const {
    return owner.empty() ? "write_snapshot" : owner + "::snapshot_write";
  }
  std::string reader_name() const {
    return owner.empty() ? "read_snapshot" : owner + "::snapshot_read";
  }
};

void add_half(const Context& ctx, const FunctionDef& fn, bool writes,
              SerializerPair& pair) {
  const std::set<std::string> fields = def_fields(ctx, fn);
  (writes ? pair.written : pair.read).insert(fields.begin(), fields.end());
  const FunctionDef*& anchor = writes ? pair.writer : pair.reader;
  if (anchor == nullptr) anchor = &fn;
}

/// Writer/reader symmetry: a field written but never read is dropped on
/// restore, and a field read but never written fails every restore.
void check_symmetry(const Context& ctx, const SerializerPair& pair,
                    std::vector<Finding>& out) {
  if (pair.writer == nullptr || pair.reader == nullptr) return;
  for (const std::string& field : pair.written) {
    if (pair.read.count(field) != 0) continue;
    out.push_back({"QL014", ctx.tree.files[pair.writer->file].rel,
                   pair.writer->begin_line,
                   "snapshot field '" + field + "' written in " +
                       pair.writer_name() + " but never read in " +
                       pair.reader_name() +
                       " — a checkpoint round-trip would drop it"});
  }
  for (const std::string& field : pair.read) {
    if (pair.written.count(field) != 0) continue;
    out.push_back({"QL014", ctx.tree.files[pair.reader->file].rel,
                   pair.reader->begin_line,
                   "snapshot field '" + field + "' read in " +
                       pair.reader_name() + " but never written in " +
                       pair.writer_name() +
                       " — deserialization expects a field the writer "
                       "never emits"});
  }
}

/// Member coverage: every persistent member of `s` maps to a field keyword
/// one half of its serializer pair names.
void audit_struct(const Context& ctx, const StructDef& s,
                  const SerializerPair& pair, const std::string& serializer_desc,
                  std::vector<Finding>& out) {
  for (const FieldDef& field : s.fields) {
    if (field.transient) continue;
    const std::string key = serialized_key(field);
    if (pair.written.count(key) != 0 || pair.read.count(key) != 0) continue;
    out.push_back(
        {"QL014", ctx.tree.files[s.file].rel, field.line,
         "member '" + field.name + "' of " + s.name + " is not written by " +
             serializer_desc + " (no '" + key +
             "' field) and not annotated '// qoslb-snapshot: transient' — a "
             "checkpoint restore would silently lose it (use "
             "'// qoslb-snapshot: as(name)' when the on-disk field is named "
             "differently)"});
  }
}

}  // namespace

void rules_snapshot(const Context& ctx, std::vector<Finding>& out) {
  // Member-hook pairs, one per owning struct (out-of-line via the
  // qualifier, or inline via line containment), plus the free pair.
  std::map<std::string, SerializerPair> member_pairs;
  SerializerPair free_pair;
  for (const FunctionDef& fn : ctx.symbols.functions()) {
    if (fn.name == "write_snapshot" || fn.name == "read_snapshot") {
      add_half(ctx, fn, fn.name == "write_snapshot", free_pair);
      continue;
    }
    if (fn.name != "snapshot_write" && fn.name != "snapshot_read") continue;
    std::string owner = fn.qualifier;
    if (owner.empty()) {
      const StructDef* s =
          ctx.symbols.enclosing_struct(fn.file, fn.begin_line);
      if (s == nullptr) continue;
      owner = s->name;
    }
    SerializerPair& pair = member_pairs[owner];
    pair.owner = owner;
    add_half(ctx, fn, fn.name == "snapshot_write", pair);
  }
  for (const auto& [owner, pair] : member_pairs) check_symmetry(ctx, pair, out);
  check_symmetry(ctx, free_pair, out);

  const bool free_serializer_seen =
      free_pair.writer != nullptr || free_pair.reader != nullptr;
  for (const StructDef& s : ctx.symbols.structs()) {
    const auto member = member_pairs.find(s.name);
    if (member != member_pairs.end()) {
      audit_struct(ctx, s, member->second,
                   s.name + "::snapshot_write/snapshot_read", out);
    } else if (free_serializer_seen && table_audited().count(s.name) != 0) {
      audit_struct(ctx, s, free_pair, "write_snapshot/read_snapshot", out);
    }
  }
}

}  // namespace qoslb::lint

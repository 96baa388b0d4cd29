#include "engine/join.h"

#include <unordered_map>

#include "common/string_util.h"
#include "engine/packed_key.h"
#include "engine/parallel.h"
#include "obs/trace.h"

namespace pctagg {

namespace {

// True if any key column is NULL at `row` (such rows never join).
bool HasNullKey(const Table& t, const std::vector<size_t>& keys, size_t row) {
  for (size_t k : keys) {
    if (t.column(k).IsNull(row)) return true;
  }
  return false;
}

}  // namespace

// True when `index` is keyed on exactly `key_names` in order — only then can
// a join or update probe it instead of building its own hash table. This is
// how the "mismatched index" strategy degrades gracefully instead of
// producing wrong results.
bool IndexMatchesKeys(const HashIndex& index,
                      const std::vector<std::string>& key_names) {
  if (index.columns().size() != key_names.size()) return false;
  for (size_t i = 0; i < key_names.size(); ++i) {
    if (!EqualsIgnoreCase(index.columns()[i], key_names[i])) return false;
  }
  return true;
}

Result<Table> HashJoin(const Table& left, const Table& right,
                       const std::vector<std::string>& left_keys,
                       const std::vector<std::string>& right_keys,
                       JoinKind kind, const std::vector<JoinOutput>& outputs,
                       const HashIndex* right_index, bool null_safe) {
  obs::OpScope op(kind == JoinKind::kLeftOuter ? "join-left-outer"
                                               : "join-inner");
  if (left_keys.empty() || left_keys.size() != right_keys.size()) {
    return Status::InvalidArgument("join key lists must match and be nonempty");
  }
  std::vector<size_t> lkeys;
  std::vector<size_t> rkeys;
  for (const std::string& name : left_keys) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, left.schema().FindColumn(name));
    lkeys.push_back(idx);
  }
  for (const std::string& name : right_keys) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, right.schema().FindColumn(name));
    rkeys.push_back(idx);
  }

  // Resolve outputs.
  struct ResolvedOutput {
    bool from_left;
    size_t column;
  };
  Schema out_schema;
  std::vector<ResolvedOutput> out_cols;
  out_cols.reserve(outputs.size());
  for (const JoinOutput& o : outputs) {
    const Table& src = o.side == JoinOutput::Side::kLeft ? left : right;
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, src.schema().FindColumn(o.column));
    out_cols.push_back({o.side == JoinOutput::Side::kLeft, idx});
    out_schema.AddColumn(
        {o.output_name.empty() ? src.schema().column(idx).name : o.output_name,
         src.schema().column(idx).type});
  }
  Table out(out_schema);

  // Build side: serial, into a fresh hash table — unless the caller supplies
  // a matching index (the paper's matching-subkey-index optimization skips
  // this pass). Packed keys match HashIndex's encoding, so either probe path
  // sees identical bytes.
  std::unordered_map<std::string, std::vector<size_t>> built;
  const bool use_index =
      right_index != nullptr && IndexMatchesKeys(*right_index, right_keys);
  if (!use_index) {
    built.reserve(right.num_rows());
    const KeyEncoder renc(right, rkeys);
    std::string key;
    for (size_t row = 0; row < right.num_rows(); ++row) {
      if (!null_safe && HasNullKey(right, rkeys, row)) continue;
      key.clear();
      renc.AppendKey(row, &key);
      built[key].push_back(row);
    }
  }

  // Probe side: morsel-parallel. Each morsel collects its (left row, right
  // row) match pairs — kNoMatch marking an outer-join NULL row — and the
  // matches are emitted serially in morsel order afterwards, so the output
  // row order is exactly the serial plan's.
  constexpr size_t kNoMatch = SIZE_MAX;
  // Translating encoder: string key columns rewrite the left table's
  // dictionary codes into the right table's code space so the packed probe
  // bytes match the build/index side's.
  const KeyEncoder lenc(left, lkeys, right, rkeys);
  MorselPlan plan = MorselPlan::For(left.num_rows(), CurrentDop());
  std::vector<std::vector<std::pair<size_t, size_t>>> morsel_matches(
      plan.num_morsels);
  size_t ran = RunMorsels(plan, [&](size_t, size_t begin, size_t end) {
    std::vector<std::pair<size_t, size_t>>& found =
        morsel_matches[begin / plan.morsel_rows];
    std::string key;
    for (size_t lrow = begin; lrow < end; ++lrow) {
      const std::vector<size_t>* matches = nullptr;
      if (null_safe || !HasNullKey(left, lkeys, lrow)) {
        key.clear();
        lenc.AppendKey(lrow, &key);
        if (use_index) {
          matches = right_index->Lookup(key);
        } else {
          auto it = built.find(key);
          if (it != built.end()) matches = &it->second;
        }
      }
      if (matches == nullptr || matches->empty()) {
        if (kind == JoinKind::kLeftOuter) found.emplace_back(lrow, kNoMatch);
        continue;
      }
      for (size_t rrow : *matches) {
        found.emplace_back(lrow, rrow);
      }
    }
  });

  size_t total = 0;
  for (const auto& mm : morsel_matches) total += mm.size();
  if (op.active()) {
    op.SetRows(left.num_rows() + right.num_rows(), total);
    op.SetMorsels(plan.num_morsels, ran);
    op.SetHashTable(use_index ? 0 : built.size(),
                    use_index ? 0 : built.bucket_count());
    op.SetDetail(use_index ? "probe=index" : "probe=built");
  }
  out.Reserve(total);
  for (const auto& mm : morsel_matches) {
    for (const auto& [lrow, rrow] : mm) {
      for (size_t c = 0; c < out_cols.size(); ++c) {
        const ResolvedOutput& oc = out_cols[c];
        if (oc.from_left) {
          out.mutable_column(c).AppendFrom(left.column(oc.column), lrow);
        } else if (rrow != kNoMatch) {
          out.mutable_column(c).AppendFrom(right.column(oc.column), rrow);
        } else {
          out.mutable_column(c).AppendNull();
        }
      }
    }
  }
  return out;
}

}  // namespace pctagg

namespace pctagg {

Result<Column> LookupColumn(const Table& left, const Table& right,
                            const std::vector<std::string>& left_keys,
                            const std::vector<std::string>& right_keys,
                            const std::string& value,
                            const HashIndex* right_index) {
  obs::OpScope op("join-lookup");
  if (left_keys.empty() || left_keys.size() != right_keys.size()) {
    return Status::InvalidArgument("lookup key lists must match and be nonempty");
  }
  std::vector<size_t> lkeys;
  std::vector<size_t> rkeys;
  for (const std::string& name : left_keys) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, left.schema().FindColumn(name));
    lkeys.push_back(idx);
  }
  for (const std::string& name : right_keys) {
    PCTAGG_ASSIGN_OR_RETURN(size_t idx, right.schema().FindColumn(name));
    rkeys.push_back(idx);
  }
  PCTAGG_ASSIGN_OR_RETURN(size_t vcol, right.schema().FindColumn(value));

  const bool use_index =
      right_index != nullptr && IndexMatchesKeys(*right_index, right_keys);
  std::unordered_map<std::string, size_t> built;
  if (!use_index) {
    built.reserve(right.num_rows());
    const KeyEncoder renc(right, rkeys);
    std::string key;
    for (size_t row = 0; row < right.num_rows(); ++row) {
      key.clear();
      renc.AppendKey(row, &key);
      built.emplace(key, row);  // unique keys: keep the first
    }
  }

  // Morsel-parallel probe into a per-row match slot (disjoint writes), then
  // a serial append pass in row order.
  constexpr size_t kNoMatch = SIZE_MAX;
  const size_t n = left.num_rows();
  // Translating encoder (see HashJoin): probe bytes must carry right-side
  // dictionary codes.
  const KeyEncoder lenc(left, lkeys, right, rkeys);
  std::vector<size_t> match_row(n, kNoMatch);
  MorselPlan plan = MorselPlan::For(n, CurrentDop());
  size_t ran = RunMorsels(plan, [&](size_t, size_t begin, size_t end) {
    std::string key;
    for (size_t row = begin; row < end; ++row) {
      key.clear();
      lenc.AppendKey(row, &key);
      if (use_index) {
        const std::vector<size_t>* rows = right_index->Lookup(key);
        if (rows != nullptr && !rows->empty()) match_row[row] = (*rows)[0];
      } else {
        auto it = built.find(key);
        if (it != built.end()) match_row[row] = it->second;
      }
    }
  });

  if (op.active()) {
    size_t matched = 0;
    for (size_t m : match_row) {
      if (m != kNoMatch) ++matched;
    }
    op.SetRows(n + right.num_rows(), matched);
    op.SetMorsels(plan.num_morsels, ran);
    op.SetHashTable(use_index ? 0 : built.size(),
                    use_index ? 0 : built.bucket_count());
    op.SetDetail(use_index ? "probe=index" : "probe=built");
  }

  const Column& values = right.column(vcol);
  Column out(values.type());
  out.Reserve(n);
  for (size_t row = 0; row < n; ++row) {
    if (match_row[row] == kNoMatch) {
      out.AppendNull();
    } else {
      out.AppendFrom(values, match_row[row]);
    }
  }
  return out;
}

}  // namespace pctagg

#include "index/value_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace vpbn::idx {

uint32_t Dictionary::Intern(std::string_view value) {
  auto it = map_.find(value);
  if (it != map_.end()) return it->second;
  uint32_t id = static_cast<uint32_t>(terms_.size());
  terms_.emplace_back(value);
  double num = 0;
  bool ok = ParseNumber(terms_.back(), &num);
  numbers_.push_back(ok ? num : 0);
  numeric_.push_back(ok ? 1 : 0);
  map_.emplace(std::string_view(terms_.back()), id);
  return id;
}

uint32_t Dictionary::Find(std::string_view value) const {
  auto it = map_.find(value);
  return it == map_.end() ? kNoTerm : it->second;
}

size_t Dictionary::MemoryUsage() const {
  size_t total = numbers_.capacity() * sizeof(double) + numeric_.capacity();
  for (const std::string& t : terms_) total += t.capacity() + sizeof(t);
  // Bucket + node overhead of the hash map, approximated per entry.
  total += map_.size() * (sizeof(std::string_view) + sizeof(uint32_t) + 16);
  return total;
}

size_t TypeColumn::MemoryUsage() const {
  size_t total = term_ids.capacity() * sizeof(uint32_t) +
                 numeric_rows.capacity() * sizeof(uint32_t) +
                 stats.MemoryUsage();
  for (const auto& [term, rows] : postings) {
    total += rows.capacity() * sizeof(uint32_t) + 16;
  }
  return total;
}

double ColumnStats::EstimateRowsBelow(double v, bool inclusive) const {
  if (numeric_count == 0) return 0;
  double below = 0;
  if (v <= min_value) {
    below = 0;
  } else if (v > max_value) {
    below = static_cast<double>(numeric_count);
  } else {
    double lo = min_value;
    for (size_t i = 0; i < bucket_max.size(); ++i) {
      double hi = bucket_max[i];
      if (v > hi) {
        below += static_cast<double>(bucket_rows[i]);
        lo = hi;
        continue;
      }
      // v lies inside bucket i: linear interpolation over its value span.
      double span = hi - lo;
      double frac = span > 0 ? (v - lo) / span : 0.0;
      below += frac * static_cast<double>(bucket_rows[i]);
      break;
    }
  }
  if (inclusive) below += EstimateEqRows(v);
  return std::min(below, static_cast<double>(numeric_count));
}

double ColumnStats::EstimateEqRows(double v) const {
  if (numeric_count == 0 || std::isnan(v) || v < min_value || v > max_value) {
    return 0;
  }
  for (size_t i = 0; i < bucket_max.size(); ++i) {
    if (v <= bucket_max[i]) {
      uint64_t d = bucket_distinct[i] != 0 ? bucket_distinct[i] : 1;
      return static_cast<double>(bucket_rows[i]) / static_cast<double>(d);
    }
  }
  return 0;
}

ColumnStats ValueIndex::ComputeStats(const TypeColumn& col) {
  ColumnStats s;
  const Dictionary& dict = *col.dict;
  const size_t n = col.term_ids.size();
  s.row_count = n;
  s.numeric_count = col.numeric_rows.size();
  s.distinct_terms = col.postings.size();
  for (const auto& [term, rows] : col.postings) {
    s.max_term_rows = std::max<uint64_t>(s.max_term_rows, rows.size());
  }
  // Zone maps over the row-order column. Term bounds cover every row; value
  // bounds cover only the numeric rows, so a block of pure strings keeps
  // the (+inf, -inf) empty interval and every numeric range skips it.
  const size_t blocks =
      (n + ColumnStats::kZoneBlockRows - 1) / ColumnStats::kZoneBlockRows;
  s.zone_min.assign(blocks, std::numeric_limits<double>::infinity());
  s.zone_max.assign(blocks, -std::numeric_limits<double>::infinity());
  s.zone_term_min.assign(blocks, kNoTerm);
  s.zone_term_max.assign(blocks, 0);
  for (size_t row = 0; row < n; ++row) {
    uint32_t term = col.term_ids[row];
    size_t b = row / ColumnStats::kZoneBlockRows;
    s.zone_term_min[b] = std::min(s.zone_term_min[b], term);
    s.zone_term_max[b] = std::max(s.zone_term_max[b], term);
    if (dict.numeric(term) && !std::isnan(dict.number(term))) {
      double v = dict.number(term);
      s.zone_min[b] = std::min(s.zone_min[b], v);
      s.zone_max[b] = std::max(s.zone_max[b], v);
    }
  }
  // Equi-depth histogram over the value-sorted numeric rows. Bucket ends
  // extend past equal-value runs so one value never straddles buckets; the
  // per-bucket distinct count falls out of the same walk.
  const std::vector<uint32_t>& nr = col.numeric_rows;
  if (!nr.empty()) {
    auto value_at = [&](size_t i) {
      return dict.number(col.term_ids[nr[i]]);
    };
    s.min_value = value_at(0);
    s.max_value = value_at(nr.size() - 1);
    size_t buckets = std::min<size_t>(ColumnStats::kMaxBuckets, nr.size());
    size_t depth = (nr.size() + buckets - 1) / buckets;
    size_t i = 0;
    while (i < nr.size()) {
      size_t end = std::min(nr.size(), i + depth);
      while (end < nr.size() && value_at(end) == value_at(end - 1)) ++end;
      uint64_t distinct = 1;
      for (size_t j = i + 1; j < end; ++j) {
        distinct += value_at(j) != value_at(j - 1) ? 1 : 0;
      }
      s.bucket_max.push_back(value_at(end - 1));
      s.bucket_rows.push_back(end - i);
      s.bucket_distinct.push_back(distinct);
      i = end;
    }
  }
  return s;
}

bool ValueIndex::GuideCovers(const dg::DataGuide& guide, dg::TypeId t) {
  if (guide.IsTextType(t)) return true;
  for (dg::TypeId c : guide.children(t)) {
    if (!guide.IsTextType(c)) return false;
  }
  return true;
}

TypeColumn ValueIndex::BuildColumn(
    size_t n, const std::function<std::string(size_t)>& value_of,
    Dictionary* dict) {
  TypeColumn col;
  col.dict = dict;
  col.term_ids.reserve(n);
  for (size_t row = 0; row < n; ++row) {
    uint32_t term = dict->Intern(value_of(row));
    col.term_ids.push_back(term);
    col.postings[term].push_back(static_cast<uint32_t>(row));
    // NaN terms ("nan" parses) stay out of the sorted column: they would
    // break the sort's strict weak ordering, and no relational or equality
    // slice can match them anyway (IEEE comparisons with NaN are false,
    // which is also what the scan path computes).
    if (dict->numeric(term) && !std::isnan(dict->number(term))) {
      col.numeric_rows.push_back(static_cast<uint32_t>(row));
    }
  }
  // Postings rows come out ascending (row-order intern loop); only the
  // numeric rows need the by-value reorder. stable_sort keeps equal values
  // in row order, so equality slices are document-ordered.
  std::stable_sort(col.numeric_rows.begin(), col.numeric_rows.end(),
                   [&](uint32_t a, uint32_t b) {
                     return dict->number(col.term_ids[a]) <
                            dict->number(col.term_ids[b]);
                   });
  col.stats = ComputeStats(col);
  return col;
}

ValueIndex ValueIndex::Build(
    const xml::Document& doc, const dg::DataGuide& guide,
    const std::vector<std::vector<xml::NodeId>>& nodes_by_type) {
  ValueIndex out;
  out.columns_.resize(guide.num_types());
  out.attrs_.resize(guide.num_types());
  for (dg::TypeId t = 0; t < guide.num_types(); ++t) {
    const std::vector<xml::NodeId>& ids = nodes_by_type[t];
    if (GuideCovers(guide, t)) {
      // One type's values are walked out before any is interned: walks
      // interleaved with dictionary probes ran about 5% slower.
      std::vector<std::string> values;
      values.reserve(ids.size());
      for (xml::NodeId id : ids) values.push_back(doc.StringValue(id));
      out.columns_[t] = std::make_unique<TypeColumn>(BuildColumn(
          ids.size(), [&](size_t row) { return std::move(values[row]); },
          out.dict_.get()));
    }
    if (guide.IsTextType(t)) continue;
    // Attribute columns: one per attribute name seen on any instance,
    // created on first sight with kNoTerm backfill for earlier rows.
    std::unordered_map<std::string, AttrColumn>& cols = out.attrs_[t];
    for (size_t row = 0; row < ids.size(); ++row) {
      for (const xml::Attribute& a : doc.attributes(ids[row])) {
        AttrColumn& col = cols[a.name];
        col.term_ids.resize(ids.size(), kNoTerm);
        col.term_ids[row] = out.dict_->Intern(a.value);
      }
    }
  }
  return out;
}

Result<TypeColumn> ValueIndex::ColumnFromTermIds(
    std::vector<uint32_t> term_ids, const Dictionary* dict,
    ColumnStats* precomputed) {
  TypeColumn col;
  col.dict = dict;
  col.term_ids = std::move(term_ids);
  // Counting pass first: with exact sizes known, the postings map and its
  // row vectors allocate once instead of rehashing and regrowing under
  // insertion (the snapshot-restore hot path rebuilds every column).
  std::vector<uint32_t> counts(dict->size(), 0);
  size_t numeric_count = 0;
  for (uint32_t term : col.term_ids) {
    if (term >= dict->size()) {
      return Status::InvalidArgument("value column term id out of range");
    }
    ++counts[term];
    if (dict->numeric(term) && !std::isnan(dict->number(term))) {
      ++numeric_count;
    }
  }
  size_t distinct = 0;
  for (uint32_t c : counts) distinct += c != 0;
  col.postings.reserve(distinct);
  col.numeric_rows.reserve(numeric_count);
  for (size_t row = 0; row < col.term_ids.size(); ++row) {
    uint32_t term = col.term_ids[row];
    std::vector<uint32_t>& rows = col.postings[term];
    if (rows.empty()) rows.reserve(counts[term]);
    rows.push_back(static_cast<uint32_t>(row));
    if (dict->numeric(term) && !std::isnan(dict->number(term))) {
      col.numeric_rows.push_back(static_cast<uint32_t>(row));
    }
  }
  std::stable_sort(col.numeric_rows.begin(), col.numeric_rows.end(),
                   [&](uint32_t a, uint32_t b) {
                     return dict->number(col.term_ids[a]) <
                            dict->number(col.term_ids[b]);
                   });
  if (precomputed != nullptr) {
    // Persisted statistics must have exactly the shape ComputeStats would
    // produce for this column; the bucket/zone *contents* only steer cost
    // estimates, never results, so they are trusted once the shapes match.
    const ColumnStats& s = *precomputed;
    const size_t blocks =
        (col.term_ids.size() + ColumnStats::kZoneBlockRows - 1) /
        ColumnStats::kZoneBlockRows;
    const bool shape_ok =
        s.row_count == col.term_ids.size() &&
        s.numeric_count == col.numeric_rows.size() &&
        s.distinct_terms == col.postings.size() &&
        s.bucket_max.size() == s.bucket_rows.size() &&
        s.bucket_max.size() == s.bucket_distinct.size() &&
        s.bucket_max.size() <= ColumnStats::kMaxBuckets &&
        s.bucket_max.empty() == (s.numeric_count == 0) &&
        s.zone_min.size() == blocks && s.zone_max.size() == blocks &&
        s.zone_term_min.size() == blocks && s.zone_term_max.size() == blocks;
    if (!shape_ok) {
      return Status::InvalidArgument(
          "value column stats do not match column shape");
    }
    col.stats = std::move(*precomputed);
  } else {
    col.stats = ComputeStats(col);
  }
  return col;
}

const AttrColumn* ValueIndex::Attr(dg::TypeId t,
                                   const std::string& name) const {
  if (t >= attrs_.size()) return nullptr;
  auto it = attrs_[t].find(name);
  return it == attrs_[t].end() ? nullptr : &it->second;
}

size_t ValueIndex::MemoryUsage() const {
  size_t total = dict_->MemoryUsage();
  for (const auto& col : columns_) {
    if (col != nullptr) total += col->MemoryUsage();
  }
  for (const auto& by_name : attrs_) {
    for (const auto& [name, col] : by_name) {
      total += name.capacity() + col.MemoryUsage();
    }
  }
  return total;
}

}  // namespace vpbn::idx

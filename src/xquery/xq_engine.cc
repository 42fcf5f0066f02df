#include "xquery/xq_engine.h"

#include <algorithm>
#include <set>

#include "query/eval_bulk.h"
#include "vpbn/virtual_value.h"
#include "xml/serializer.h"
#include "xquery/xq_parser.h"

namespace vpbn::xq {

Status Engine::RegisterDocument(const std::string& name,
                                const xml::Document* doc) {
  if (doc == nullptr) return Status::InvalidArgument("null document");
  if (sources_.count(name) > 0) {
    return Status::InvalidArgument("document '" + name +
                                   "' already registered");
  }
  Source src;
  src.doc = doc;
  src.stored = std::make_unique<storage::StoredDocument>(
      storage::StoredDocument::Build(*doc));
  sources_.emplace(name, std::move(src));
  return Status::OK();
}

Result<const storage::StoredDocument*> Engine::Stored(
    const std::string& name) const {
  auto it = sources_.find(name);
  if (it == sources_.end()) {
    return Status::NotFound("no document registered as '" + name + "'");
  }
  return it->second.stored.get();
}

Result<virt::VirtualDocument*> Engine::View(const std::string& doc_name,
                                            const std::string& spec) {
  auto it = sources_.find(doc_name);
  if (it == sources_.end()) {
    return Status::NotFound("no document registered as '" + doc_name + "'");
  }
  auto view_it = it->second.views.find(spec);
  if (view_it == it->second.views.end()) {
    VPBN_ASSIGN_OR_RETURN(virt::VirtualDocument view,
                          virt::VirtualDocument::Open(*it->second.stored,
                                                      spec));
    view_it = it->second.views
                  .emplace(spec, std::make_unique<virt::VirtualDocument>(
                                     std::move(view)))
                  .first;
  }
  return view_it->second.get();
}

Result<Sequence> Engine::Run(std::string_view query_text) {
  VPBN_ASSIGN_OR_RETURN(std::unique_ptr<XqExpr> query,
                        ParseQuery(query_text));
  return Run(*query);
}

Result<Sequence> Engine::Run(const XqExpr& query) {
  Env env;
  return EvalExpr(query, &env);
}

Result<std::string> Engine::RunToXml(std::string_view query_text) {
  VPBN_ASSIGN_OR_RETURN(Sequence seq, Run(query_text));
  std::string out;
  for (const Item& item : seq) out += ItemToXml(item);
  return out;
}

std::string Engine::ItemToXml(const Item& item) const {
  switch (item.kind) {
    case Item::Kind::kNode:
      return xml::SerializeNode(*item.doc, item.node);
    case Item::Kind::kVirtualNode: {
      virt::VirtualValueComputer values(*item.vdoc);
      return values.Value(item.vnode);
    }
    case Item::Kind::kString:
      return item.str;
    case Item::Kind::kNumber:
      if (item.num == static_cast<int64_t>(item.num)) {
        return std::to_string(static_cast<int64_t>(item.num));
      }
      return std::to_string(item.num);
  }
  return "";
}

std::string Engine::ItemStringValue(const Item& item) const {
  switch (item.kind) {
    case Item::Kind::kNode:
      return item.doc->StringValue(item.node);
    case Item::Kind::kVirtualNode:
      return item.vdoc->StringValue(item.vnode);
    case Item::Kind::kString:
      return item.str;
    case Item::Kind::kNumber:
      if (item.num == static_cast<int64_t>(item.num)) {
        return std::to_string(static_cast<int64_t>(item.num));
      }
      return std::to_string(item.num);
  }
  return "";
}

const query::NavAdapter& Engine::NavFor(const xml::Document& doc) {
  auto it = nav_cache_.find(&doc);
  if (it == nav_cache_.end() || it->second.first != doc.num_nodes()) {
    nav_cache_[&doc] = {doc.num_nodes(),
                        std::make_unique<query::NavAdapter>(doc)};
    it = nav_cache_.find(&doc);
  }
  return *it->second.second;
}

namespace {

/// A path ending in `@name` atomizes to attribute values; every other path
/// yields nodes. Returns the number of steps to evaluate as navigation.
bool AttributeTerminal(const query::Path& path, size_t* nav_steps,
                       const std::string** attr_name) {
  if (!path.steps.empty() &&
      path.steps.back().axis == num::Axis::kAttribute) {
    *nav_steps = path.steps.size() - 1;
    *attr_name = &path.steps.back().test.name;
    return true;
  }
  *nav_steps = path.steps.size();
  *attr_name = nullptr;
  return false;
}

}  // namespace

Result<Sequence> Engine::ApplyPathToItem(const query::Path& path,
                                         const Item& item) {
  Sequence out;
  size_t nav_steps = 0;
  const std::string* attr_name = nullptr;
  bool attr_terminal = AttributeTerminal(path, &nav_steps, &attr_name);

  if (item.kind == Item::Kind::kNode) {
    const query::NavAdapter& adapter = NavFor(*item.doc);
    query::PathEvaluator<query::NavAdapter> eval(adapter);
    VPBN_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                          eval.EvalPrefixFrom(path, nav_steps, item.node));
    for (xml::NodeId n : nodes) {
      if (attr_terminal) {
        auto value = adapter.Attribute(n, *attr_name);
        if (!value.ok()) continue;  // absent attribute: contributes nothing
        Item it;
        it.kind = Item::Kind::kString;
        it.str = std::move(value).ValueUnsafe();
        out.push_back(std::move(it));
      } else {
        Item it;
        it.kind = Item::Kind::kNode;
        it.doc = item.doc;
        it.node = n;
        out.push_back(std::move(it));
      }
    }
    return out;
  }
  if (item.kind == Item::Kind::kVirtualNode) {
    query::VirtualAdapter adapter(*item.vdoc);
    query::PathEvaluator<query::VirtualAdapter> eval(adapter);
    VPBN_ASSIGN_OR_RETURN(std::vector<virt::VirtualNode> nodes,
                          eval.EvalPrefixFrom(path, nav_steps, item.vnode));
    for (const virt::VirtualNode& n : nodes) {
      if (attr_terminal) {
        auto value = adapter.Attribute(n, *attr_name);
        if (!value.ok()) continue;
        Item it;
        it.kind = Item::Kind::kString;
        it.str = std::move(value).ValueUnsafe();
        out.push_back(std::move(it));
      } else {
        Item it;
        it.kind = Item::Kind::kVirtualNode;
        it.vdoc = item.vdoc;
        it.vnode = n;
        out.push_back(std::move(it));
      }
    }
    return out;
  }
  return Status::InvalidArgument("cannot navigate from an atomic value");
}

Status Engine::AppendItemCopy(xml::Document* out, xml::NodeId parent,
                              const Item& item) {
  switch (item.kind) {
    case Item::Kind::kNode: {
      // Deep copy of the physical subtree.
      const xml::Document& src = *item.doc;
      struct Frame {
        xml::NodeId src_node;
        xml::NodeId dst_parent;
      };
      std::vector<Frame> stack{{item.node, parent}};
      while (!stack.empty()) {
        Frame f = stack.back();
        stack.pop_back();
        xml::NodeId copy;
        if (src.IsText(f.src_node)) {
          copy = out->AddText(src.text(f.src_node), f.dst_parent);
        } else {
          copy = out->AddElement(src.name(f.src_node), f.dst_parent);
          for (const xml::Attribute& a : src.attributes(f.src_node)) {
            out->AddAttribute(copy, a.name, a.value);
          }
        }
        ++stats_.materialized_nodes;
        std::vector<xml::NodeId> kids = src.Children(f.src_node);
        for (size_t i = kids.size(); i > 0; --i) {
          stack.push_back({kids[i - 1], copy});
        }
      }
      return Status::OK();
    }
    case Item::Kind::kVirtualNode: {
      // Deep copy of the *virtual* subtree (instantiates the view).
      const virt::VirtualDocument& vdoc = *item.vdoc;
      const xml::Document& src = vdoc.stored().doc();
      struct Frame {
        virt::VirtualNode src_node;
        xml::NodeId dst_parent;
      };
      std::vector<Frame> stack{{item.vnode, parent}};
      while (!stack.empty()) {
        Frame f = stack.back();
        stack.pop_back();
        xml::NodeId copy;
        if (src.IsText(f.src_node.node)) {
          copy = out->AddText(src.text(f.src_node.node), f.dst_parent);
        } else {
          copy = out->AddElement(src.name(f.src_node.node), f.dst_parent);
          for (const xml::Attribute& a : src.attributes(f.src_node.node)) {
            out->AddAttribute(copy, a.name, a.value);
          }
        }
        ++stats_.materialized_nodes;
        std::vector<virt::VirtualNode> kids = vdoc.Children(f.src_node);
        for (size_t i = kids.size(); i > 0; --i) {
          stack.push_back({kids[i - 1], copy});
        }
      }
      return Status::OK();
    }
    case Item::Kind::kString:
      out->AddText(item.str, parent);
      return Status::OK();
    case Item::Kind::kNumber:
      out->AddText(ItemStringValue(item), parent);
      return Status::OK();
  }
  return Status::Internal("unreachable item kind");
}

Result<Item> Engine::ConstructElement(const XqExpr& ctor, Env* env) {
  constructed_.push_back(std::make_unique<xml::Document>());
  ++stats_.constructed_documents;
  xml::Document* doc = constructed_.back().get();
  xml::NodeId root = doc->AddElement(ctor.elem_name, xml::kNullNode);
  for (const auto& [name, value] : ctor.attrs) {
    doc->AddAttribute(root, name, value);
  }
  for (const Content& c : ctor.content) {
    switch (c.kind) {
      case Content::Kind::kText:
        doc->AddText(c.text, root);
        break;
      case Content::Kind::kExpr:
      case Content::Kind::kElement: {
        VPBN_ASSIGN_OR_RETURN(Sequence seq, EvalExpr(*c.expr, env));
        for (const Item& item : seq) {
          VPBN_RETURN_NOT_OK(AppendItemCopy(doc, root, item));
        }
        break;
      }
    }
  }
  Item out;
  out.kind = Item::Kind::kNode;
  out.doc = doc;
  out.node = root;
  return out;
}

Result<bool> Engine::Truthy(const XqExpr& expr, Env* env) {
  VPBN_ASSIGN_OR_RETURN(Sequence seq, EvalExpr(expr, env));
  if (seq.empty()) return false;
  if (seq.size() == 1) {
    const Item& item = seq[0];
    if (item.kind == Item::Kind::kString) return !item.str.empty();
    if (item.kind == Item::Kind::kNumber) return item.num != 0;
  }
  return true;  // non-empty node sequence
}

Result<Sequence> Engine::EvalFlwr(const XqExpr& flwr, Env* env) {
  if (flwr.order_by == nullptr) {
    return EvalFors(flwr, 0, env, /*ordered=*/nullptr);
  }
  std::vector<OrderedChunk> chunks;
  VPBN_ASSIGN_OR_RETURN(Sequence unused, EvalFors(flwr, 0, env, &chunks));
  (void)unused;
  // Numeric-aware, stable sort (XQuery sorts by typed value; our subset
  // compares numerically when both keys parse as numbers, lexicographically
  // otherwise — CompareValues cannot be used here since XPath relational
  // comparison of non-numeric strings is always false).
  std::stable_sort(chunks.begin(), chunks.end(),
                   [&](const OrderedChunk& a, const OrderedChunk& b) {
                     return query::OrderLess(a.key, b.key);
                   });
  if (flwr.order_descending) {
    std::reverse(chunks.begin(), chunks.end());
  }
  Sequence out;
  for (OrderedChunk& c : chunks) {
    for (Item& item : c.result) out.push_back(std::move(item));
  }
  return out;
}

Result<Sequence> Engine::EvalFors(const XqExpr& flwr, size_t idx, Env* env,
                                  std::vector<OrderedChunk>* ordered) {
  if (idx < flwr.fors.size()) {
    const Binding& b = flwr.fors[idx];
    VPBN_ASSIGN_OR_RETURN(Sequence domain, EvalExpr(*b.expr, env));
    Sequence out;
    for (Item& item : domain) {
      (*env)[b.var] = Sequence{item};
      auto inner = EvalFors(flwr, idx + 1, env, ordered);
      if (!inner.ok()) {
        env->erase(b.var);
        return inner.status();
      }
      for (Item& r : *inner) out.push_back(std::move(r));
    }
    env->erase(b.var);
    return out;
  }
  // All fors bound: evaluate lets, where, (order key,) return.
  std::vector<std::string> bound_lets;
  auto cleanup = [&] {
    for (const std::string& v : bound_lets) env->erase(v);
  };
  for (const Binding& b : flwr.lets) {
    auto seq = EvalExpr(*b.expr, env);
    if (!seq.ok()) {
      cleanup();
      return seq.status();
    }
    (*env)[b.var] = std::move(seq).ValueUnsafe();
    bound_lets.push_back(b.var);
  }
  Sequence out;
  bool keep = true;
  if (flwr.where != nullptr) {
    auto t = Truthy(*flwr.where, env);
    if (!t.ok()) {
      cleanup();
      return t.status();
    }
    keep = t.value();
  }
  if (keep) {
    auto r = EvalExpr(*flwr.ret, env);
    if (!r.ok()) {
      cleanup();
      return r.status();
    }
    if (ordered != nullptr) {
      auto key_seq = EvalExpr(*flwr.order_by, env);
      if (!key_seq.ok()) {
        cleanup();
        return key_seq.status();
      }
      OrderedChunk chunk;
      chunk.key =
          key_seq->empty() ? "" : ItemStringValue(key_seq->front());
      chunk.result = std::move(r).ValueUnsafe();
      ordered->push_back(std::move(chunk));
    } else {
      out = std::move(r).ValueUnsafe();
    }
  }
  cleanup();
  return out;
}

Result<Sequence> Engine::EvalExpr(const XqExpr& expr, Env* env) {
  Sequence out;
  switch (expr.kind) {
    case XqExpr::Kind::kFlwr:
      return EvalFlwr(expr, env);
    case XqExpr::Kind::kDoc: {
      auto it = sources_.find(expr.doc_name);
      if (it == sources_.end()) {
        return Status::NotFound("no document registered as '" +
                                expr.doc_name + "'");
      }
      if (!expr.has_path) {
        for (xml::NodeId r : it->second.doc->roots()) {
          Item item;
          item.kind = Item::Kind::kNode;
          item.doc = it->second.doc;
          item.node = r;
          out.push_back(std::move(item));
        }
        return out;
      }
      // Navigate through the PBN indexes of the stored form, on the plan
      // QueryEngine would pick: set-at-a-time joins for the bulk fragment
      // (never a path ending in an @attr step), per node otherwise.
      const storage::StoredDocument& stored = *it->second.stored;
      size_t nav_steps = 0;
      const std::string* attr_name = nullptr;
      bool attr_terminal =
          AttributeTerminal(expr.path, &nav_steps, &attr_name);
      query::IndexedAdapter adapter(stored);
      std::vector<xml::NodeId> ids;
      if (query::InBulkFragment(expr.path)) {
        VPBN_ASSIGN_OR_RETURN(ids, query::EvalBulk(stored, expr.path));
      } else {
        query::PathEvaluator<query::IndexedAdapter> eval(adapter);
        VPBN_ASSIGN_OR_RETURN(ids, eval.EvalPrefix(expr.path, nav_steps));
      }
      for (xml::NodeId id : ids) {
        if (attr_terminal) {
          auto value = adapter.Attribute(id, *attr_name);
          if (!value.ok()) continue;
          Item item;
          item.kind = Item::Kind::kString;
          item.str = std::move(value).ValueUnsafe();
          out.push_back(std::move(item));
        } else {
          Item item;
          item.kind = Item::Kind::kNode;
          item.doc = it->second.doc;
          item.node = id;
          out.push_back(std::move(item));
        }
      }
      return out;
    }
    case XqExpr::Kind::kVirtualDoc: {
      VPBN_ASSIGN_OR_RETURN(virt::VirtualDocument * view,
                            View(expr.doc_name, expr.vdg_spec));
      std::vector<virt::VirtualNode> nodes;
      bool attr_terminal = false;
      size_t nav_steps = 0;
      const std::string* attr_name = nullptr;
      query::VirtualAdapter adapter(*view);
      if (expr.has_path) {
        attr_terminal = AttributeTerminal(expr.path, &nav_steps, &attr_name);
        query::PathEvaluator<query::VirtualAdapter> eval(adapter);
        VPBN_ASSIGN_OR_RETURN(nodes, eval.EvalPrefix(expr.path, nav_steps));
      } else {
        nodes = view->Roots();
      }
      for (const virt::VirtualNode& n : nodes) {
        if (attr_terminal) {
          auto value = adapter.Attribute(n, *attr_name);
          if (!value.ok()) continue;
          Item item;
          item.kind = Item::Kind::kString;
          item.str = std::move(value).ValueUnsafe();
          out.push_back(std::move(item));
        } else {
          Item item;
          item.kind = Item::Kind::kVirtualNode;
          item.vdoc = view;
          item.vnode = n;
          out.push_back(std::move(item));
        }
      }
      return out;
    }
    case XqExpr::Kind::kVarPath: {
      auto it = env->find(expr.var);
      if (it == env->end()) {
        return Status::NotFound("unbound variable $" + expr.var);
      }
      if (!expr.has_path) return it->second;
      for (const Item& item : it->second) {
        VPBN_ASSIGN_OR_RETURN(Sequence part,
                              ApplyPathToItem(expr.path, item));
        for (Item& r : part) out.push_back(std::move(r));
      }
      return out;
    }
    case XqExpr::Kind::kInnerPath: {
      VPBN_ASSIGN_OR_RETURN(Sequence inner, EvalExpr(*expr.lhs, env));
      if (!expr.has_path) return inner;
      // Materialize the inner sequence into a fresh document — the paper's
      // "two passes over the data" baseline (§2) — then navigate it.
      constructed_.push_back(std::make_unique<xml::Document>());
      ++stats_.constructed_documents;
      xml::Document* doc = constructed_.back().get();
      for (const Item& item : inner) {
        VPBN_RETURN_NOT_OK(AppendItemCopy(doc, xml::kNullNode, item));
      }
      VPBN_ASSIGN_OR_RETURN(std::vector<xml::NodeId> nodes,
                            query::EvalNav(*doc, expr.path));
      for (xml::NodeId n : nodes) {
        Item item;
        item.kind = Item::Kind::kNode;
        item.doc = doc;
        item.node = n;
        out.push_back(std::move(item));
      }
      return out;
    }
    case XqExpr::Kind::kCount: {
      VPBN_ASSIGN_OR_RETURN(Sequence inner, EvalExpr(*expr.lhs, env));
      Item item;
      item.kind = Item::Kind::kNumber;
      item.num = static_cast<double>(inner.size());
      out.push_back(std::move(item));
      return out;
    }
    case XqExpr::Kind::kAggregate: {
      VPBN_ASSIGN_OR_RETURN(Sequence inner, EvalExpr(*expr.lhs, env));
      // Non-numeric values make an aggregate an error (strict, unlike
      // XPath 1.0's NaN propagation — easier to debug).
      std::vector<double> values;
      for (const Item& item : inner) {
        double v = 0;
        std::string s = ItemStringValue(item);
        if (!query::ToNumber(s, &v)) {
          return Status::InvalidArgument("aggregate " + expr.str +
                                         "() over non-numeric value '" + s +
                                         "'");
        }
        values.push_back(v);
      }
      if (values.empty() && expr.str != "sum") {
        return out;  // min/max/avg of an empty sequence is empty
      }
      double result = 0;
      if (expr.str == "sum") {
        for (double v : values) result += v;
      } else if (expr.str == "min") {
        result = *std::min_element(values.begin(), values.end());
      } else if (expr.str == "max") {
        result = *std::max_element(values.begin(), values.end());
      } else {  // avg
        for (double v : values) result += v;
        result /= static_cast<double>(values.size());
      }
      Item item;
      item.kind = Item::Kind::kNumber;
      item.num = result;
      out.push_back(std::move(item));
      return out;
    }
    case XqExpr::Kind::kDistinct: {
      VPBN_ASSIGN_OR_RETURN(Sequence inner, EvalExpr(*expr.lhs, env));
      std::set<std::string> seen;
      for (const Item& item : inner) {
        std::string value = ItemStringValue(item);
        if (!seen.insert(value).second) continue;
        Item atom;
        atom.kind = Item::Kind::kString;
        atom.str = std::move(value);
        out.push_back(std::move(atom));
      }
      return out;
    }
    case XqExpr::Kind::kContains: {
      VPBN_ASSIGN_OR_RETURN(Sequence hay, EvalExpr(*expr.lhs, env));
      VPBN_ASSIGN_OR_RETURN(Sequence needle, EvalExpr(*expr.rhs, env));
      std::string needle_str =
          needle.empty() ? "" : ItemStringValue(needle[0]);
      bool hit = false;
      for (const Item& h : hay) {
        if (ItemStringValue(h).find(needle_str) != std::string::npos) {
          hit = true;
        }
      }
      Item item;
      item.kind = Item::Kind::kNumber;
      item.num = hit ? 1 : 0;
      out.push_back(std::move(item));
      return out;
    }
    case XqExpr::Kind::kStringFn: {
      VPBN_ASSIGN_OR_RETURN(Sequence inner, EvalExpr(*expr.lhs, env));
      Item item;
      item.kind = Item::Kind::kString;
      item.str = inner.empty() ? "" : ItemStringValue(inner[0]);
      out.push_back(std::move(item));
      return out;
    }
    case XqExpr::Kind::kString: {
      Item item;
      item.kind = Item::Kind::kString;
      item.str = expr.str;
      out.push_back(std::move(item));
      return out;
    }
    case XqExpr::Kind::kNumber: {
      Item item;
      item.kind = Item::Kind::kNumber;
      item.num = expr.num;
      out.push_back(std::move(item));
      return out;
    }
    case XqExpr::Kind::kElemCtor: {
      VPBN_ASSIGN_OR_RETURN(Item item, ConstructElement(expr, env));
      out.push_back(std::move(item));
      return out;
    }
    case XqExpr::Kind::kCompare: {
      VPBN_ASSIGN_OR_RETURN(Sequence lhs, EvalExpr(*expr.lhs, env));
      VPBN_ASSIGN_OR_RETURN(Sequence rhs, EvalExpr(*expr.rhs, env));
      bool hit = false;
      // Existential comparison over string values (XPath convention).
      for (const Item& l : lhs) {
        for (const Item& r : rhs) {
          if (query::CompareValues(ItemStringValue(l), expr.op,
                                   ItemStringValue(r))) {
            hit = true;
          }
        }
      }
      Item item;
      item.kind = Item::Kind::kNumber;
      item.num = hit ? 1 : 0;
      out.push_back(std::move(item));
      return out;
    }
    case XqExpr::Kind::kAnd:
    case XqExpr::Kind::kOr: {
      VPBN_ASSIGN_OR_RETURN(bool l, Truthy(*expr.lhs, env));
      bool value;
      if (expr.kind == XqExpr::Kind::kAnd) {
        if (!l) {
          value = false;
        } else {
          VPBN_ASSIGN_OR_RETURN(bool r, Truthy(*expr.rhs, env));
          value = r;
        }
      } else {
        if (l) {
          value = true;
        } else {
          VPBN_ASSIGN_OR_RETURN(bool r, Truthy(*expr.rhs, env));
          value = r;
        }
      }
      Item item;
      item.kind = Item::Kind::kNumber;
      item.num = value ? 1 : 0;
      out.push_back(std::move(item));
      return out;
    }
    case XqExpr::Kind::kNot: {
      VPBN_ASSIGN_OR_RETURN(bool l, Truthy(*expr.lhs, env));
      Item item;
      item.kind = Item::Kind::kNumber;
      item.num = l ? 0 : 1;
      out.push_back(std::move(item));
      return out;
    }
  }
  return Status::Internal("unreachable xquery expr kind");
}

}  // namespace vpbn::xq

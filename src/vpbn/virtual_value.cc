#include "vpbn/virtual_value.h"

#include "common/str_util.h"

namespace vpbn::virt {

VirtualValueComputer::VirtualValueComputer(const VirtualDocument& vdoc)
    : vdoc_(&vdoc) {
  // Intactness is computed once per view by the VirtualDocument.
  intact_.resize(vdoc.vguide().num_vtypes());
  for (vdg::VTypeId t = 0; t < vdoc.vguide().num_vtypes(); ++t) {
    intact_[t] = vdoc.IsIntactVType(t);
  }
}

std::string VirtualValueComputer::Value(const VirtualNode& v) {
  std::string out;
  AppendValue(v, &out);
  return out;
}

bool VirtualValueComputer::ValueView(const VirtualNode& v,
                                     std::string_view* out) {
  if (!intact_[v.vtype]) return false;
  *out = vdoc_->stored().Value(v.node);
  ++stats_.range_copies;
  return true;
}

void VirtualValueComputer::AppendValue(const VirtualNode& v,
                                       std::string* out) {
  const storage::StoredDocument& stored = vdoc_->stored();
  if (intact_[v.vtype]) {
    // One range copy through the value index (§6).
    out->append(stored.Value(v.node));
    ++stats_.range_copies;
    return;
  }
  ++stats_.constructed_nodes;
  const xml::Document& doc = stored.doc();
  if (doc.IsText(v.node)) {
    out->append(EscapeXmlText(doc.text(v.node)));
    return;
  }
  std::vector<VirtualNode> kids = vdoc_->Children(v);
  out->push_back('<');
  out->append(doc.name(v.node));
  for (const xml::Attribute& a : doc.attributes(v.node)) {
    out->push_back(' ');
    out->append(a.name);
    out->append("=\"");
    out->append(EscapeXmlAttribute(a.value));
    out->push_back('"');
  }
  if (kids.empty()) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  for (const VirtualNode& c : kids) AppendValue(c, out);
  out->append("</");
  out->append(doc.name(v.node));
  out->push_back('>');
}

}  // namespace vpbn::virt

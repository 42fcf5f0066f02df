#include "server/catalog.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "common/str_util.h"
#include "storage/snapshot.h"
#include "xml/parser.h"

namespace vpbn::server {

namespace {

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

Result<std::shared_ptr<const query::QueryEngine>> CatalogEntry::EngineFor(
    const std::string& view_name) const {
  if (view_name.empty()) return engine;
  auto it = views.find(view_name);
  if (it == views.end()) {
    return Status::NotFound("document '" + name + "' has no view '" +
                            view_name + "'");
  }
  return it->second.engine;
}

Status Catalog::AddDocumentFile(const std::string& name,
                                const std::string& path) {
  DocumentSource source;
  source.kind = EndsWith(path, ".vpsn") ? DocumentSource::Kind::kSnapshotFile
                                        : DocumentSource::Kind::kXmlFile;
  source.value = path;
  VPBN_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogEntry> entry,
                        BuildEntry(name, source, /*epoch=*/1, {}));
  std::lock_guard<std::mutex> lock(mu_);
  if (docs_.count(name) != 0) {
    return Status::InvalidArgument("document '" + name +
                                   "' already registered (use RELOAD)");
  }
  docs_.emplace(name, std::move(entry));
  return Status::OK();
}

Status Catalog::AddDocumentXml(const std::string& name,
                               std::string xml_text) {
  DocumentSource source;
  source.kind = DocumentSource::Kind::kXmlText;
  source.value = std::move(xml_text);
  VPBN_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogEntry> entry,
                        BuildEntry(name, source, /*epoch=*/1, {}));
  std::lock_guard<std::mutex> lock(mu_);
  if (docs_.count(name) != 0) {
    return Status::InvalidArgument("document '" + name +
                                   "' already registered (use RELOAD)");
  }
  docs_.emplace(name, std::move(entry));
  return Status::OK();
}

Status Catalog::AddView(const std::string& doc_name,
                        const std::string& view_name,
                        const std::string& spec) {
  if (view_name.empty()) {
    return Status::InvalidArgument("view name must be non-empty");
  }
  std::shared_ptr<const CatalogEntry> current = Find(doc_name);
  if (current == nullptr) {
    return Status::NotFound("no document named '" + doc_name + "'");
  }
  // Open the view against the *current* stored document and republish the
  // entry with the view added. The stored document, its engine and the
  // existing views are shared with the old generation, not rebuilt.
  VPBN_ASSIGN_OR_RETURN(
      std::shared_ptr<const virt::VirtualDocument> vdoc,
      virt::VirtualDocument::OpenShared(current->stored, spec));
  auto view_engine = std::make_shared<query::QueryEngine>(vdoc);
  view_engine->SetDefaultOptions(default_options_);
  view_engine->SetEpoch(current->epoch);

  auto next = std::make_shared<CatalogEntry>(*current);
  CatalogView view;
  view.name = view_name;
  view.spec = spec;
  view.vdoc = std::move(vdoc);
  view.engine = std::move(view_engine);
  next->views[view_name] = std::move(view);

  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(doc_name);
  if (it == docs_.end() || it->second != current) {
    // The entry was reloaded (or dropped) while we built the view; the
    // caller should retry against the new generation.
    return Status::InvalidArgument("document '" + doc_name +
                                   "' changed while adding view '" +
                                   view_name + "'; retry");
  }
  it->second = std::move(next);
  return Status::OK();
}

Result<uint64_t> Catalog::Reload(const std::string& name) {
  std::shared_ptr<const CatalogEntry> current = Find(name);
  if (current == nullptr) {
    return Status::NotFound("no document named '" + name + "'");
  }
  std::map<std::string, std::string> view_specs;
  for (const auto& [vname, view] : current->views) {
    view_specs[vname] = view.spec;
  }
  const uint64_t next_epoch = current->epoch + 1;
  VPBN_ASSIGN_OR_RETURN(
      std::shared_ptr<const CatalogEntry> entry,
      BuildEntry(name, current->source, next_epoch, view_specs));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  if (it == docs_.end()) {
    return Status::NotFound("document '" + name +
                            "' was dropped during reload");
  }
  if (it->second->epoch >= next_epoch) {
    // A concurrent reload won; its generation is at least as fresh.
    return it->second->epoch;
  }
  it->second = std::move(entry);
  return next_epoch;
}

Result<uint64_t> Catalog::ReplaceDocumentXml(const std::string& name,
                                             std::string xml_text) {
  std::shared_ptr<const CatalogEntry> current = Find(name);
  if (current == nullptr) {
    return Status::NotFound("no document named '" + name + "'");
  }
  if (current->source.kind != DocumentSource::Kind::kXmlText) {
    return Status::InvalidArgument("document '" + name +
                                   "' is not an in-memory XML document");
  }
  std::map<std::string, std::string> view_specs;
  for (const auto& [vname, view] : current->views) {
    view_specs[vname] = view.spec;
  }
  DocumentSource source;
  source.kind = DocumentSource::Kind::kXmlText;
  source.value = std::move(xml_text);
  const uint64_t next_epoch = current->epoch + 1;
  VPBN_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogEntry> entry,
                        BuildEntry(name, source, next_epoch, view_specs));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  if (it == docs_.end()) {
    return Status::NotFound("document '" + name +
                            "' was dropped during replace");
  }
  if (it->second->epoch >= next_epoch) {
    return it->second->epoch;
  }
  it->second = std::move(entry);
  return next_epoch;
}

std::shared_ptr<const CatalogEntry> Catalog::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  return it == docs_.end() ? nullptr : it->second;
}

std::vector<std::shared_ptr<const CatalogEntry>> Catalog::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<const CatalogEntry>> out;
  out.reserve(docs_.size());
  for (const auto& [name, entry] : docs_) out.push_back(entry);
  return out;
}

size_t Catalog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return docs_.size();
}

Result<std::shared_ptr<const CatalogEntry>> Catalog::BuildEntry(
    const std::string& name, const DocumentSource& source, uint64_t epoch,
    const std::map<std::string, std::string>& view_specs) const {
  std::shared_ptr<const storage::StoredDocument> stored;
  switch (source.kind) {
    case DocumentSource::Kind::kSnapshotFile: {
      auto loaded = storage::Snapshot::LoadFile(source.value, use_mmap_);
      if (!loaded.ok()) {
        return loaded.status().WithContext("loading snapshot for '" + name +
                                           "'");
      }
      stored = std::make_shared<const storage::StoredDocument>(
          std::move(*loaded));
      break;
    }
    case DocumentSource::Kind::kXmlFile:
    case DocumentSource::Kind::kXmlText: {
      std::string xml_text;
      if (source.kind == DocumentSource::Kind::kXmlFile) {
        VPBN_ASSIGN_OR_RETURN(xml_text, ReadFileBytes(source.value));
      } else {
        xml_text = source.value;
      }
      auto parsed = xml::Parse(xml_text);
      if (!parsed.ok()) {
        return parsed.status().WithContext("parsing document '" + name + "'");
      }
      stored = std::make_shared<const storage::StoredDocument>(
          storage::StoredDocument::Build(std::move(*parsed)));
      break;
    }
  }

  auto entry = std::make_shared<CatalogEntry>();
  entry->name = name;
  entry->source = source;
  entry->epoch = epoch;
  entry->stored = stored;
  auto engine = std::make_shared<query::QueryEngine>(stored);
  engine->SetDefaultOptions(default_options_);
  engine->SetEpoch(epoch);
  // Value-index statistics (histograms, zone maps) are rebuilt with the
  // document, so the statistics generation tracks the document generation:
  // a reload invalidates every plan costed under the old histograms.
  engine->SetStatsEpoch(epoch);
  entry->engine = std::move(engine);

  for (const auto& [vname, spec] : view_specs) {
    auto vdoc = virt::VirtualDocument::OpenShared(stored, spec);
    if (!vdoc.ok()) {
      return vdoc.status().WithContext("opening view '" + vname + "' of '" +
                                       name + "'");
    }
    auto view_engine = std::make_shared<query::QueryEngine>(*vdoc);
    view_engine->SetDefaultOptions(default_options_);
    view_engine->SetEpoch(epoch);
    CatalogView view;
    view.name = vname;
    view.spec = spec;
    view.vdoc = std::move(*vdoc);
    view.engine = std::move(view_engine);
    entry->views[vname] = std::move(view);
  }
  return std::shared_ptr<const CatalogEntry>(std::move(entry));
}

}  // namespace vpbn::server

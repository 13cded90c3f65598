#include "src/storage/catalog.h"

#include <cctype>
#include <cstdio>

#include "src/common/hash.h"

namespace spider {

namespace {

// "<name with every character but [A-Za-z0-9._] made '_'>-<16-hex hash>".
std::string FileStem(std::string name, uint64_t hash) {
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '_') {
      c = '_';
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(hash));
  return name + "-" + hex;
}

}  // namespace

std::string AttributeFileStem(const AttributeRef& attr) {
  // Chained so the table/column boundary stays significant.
  return FileStem(attr.table + "." + attr.column,
                  HashString(attr.column, HashString(attr.table)));
}

std::string TableFileStem(std::string_view table) {
  return FileStem(std::string(table), HashString(table));
}

Result<Table*> Catalog::CreateTable(const std::string& name) {
  if (FindTable(name) != nullptr) {
    return Status::AlreadyExists("table '" + name + "' already exists");
  }
  tables_.push_back(std::make_unique<Table>(name));
  return tables_.back().get();
}

Status Catalog::AddTable(std::unique_ptr<Table> table) {
  if (FindTable(table->name()) != nullptr) {
    return Status::AlreadyExists("table '" + table->name() +
                                 "' already exists");
  }
  tables_.push_back(std::move(table));
  return Status::OK();
}

const Table* Catalog::FindTable(std::string_view name) const {
  for (const auto& t : tables_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

Table* Catalog::FindTable(std::string_view name) {
  for (auto& t : tables_) {
    if (t->name() == name) return t.get();
  }
  return nullptr;
}

Result<const Column*> Catalog::ResolveAttribute(const AttributeRef& ref) const {
  const Table* table = FindTable(ref.table);
  if (table == nullptr) {
    return Status::NotFound("no such table: " + ref.table);
  }
  const Column* column = table->FindColumn(ref.column);
  if (column == nullptr) {
    return Status::NotFound("no such column: " + ref.ToString());
  }
  return column;
}

std::vector<AttributeRef> Catalog::AllAttributes() const {
  std::vector<AttributeRef> out;
  for (const auto& t : tables_) {
    for (int c = 0; c < t->column_count(); ++c) {
      out.push_back({t->name(), t->column(c).name()});
    }
  }
  return out;
}

int Catalog::attribute_count() const {
  int n = 0;
  for (const auto& t : tables_) n += t->column_count();
  return n;
}

int64_t Catalog::ApproximateByteSize() const {
  int64_t bytes = 0;
  for (const auto& t : tables_) bytes += t->ApproximateByteSize();
  return bytes;
}

bool Catalog::out_of_core() const {
  for (const auto& t : tables_) {
    for (int c = 0; c < t->column_count(); ++c) {
      if (t->column(c).out_of_core()) return true;
    }
  }
  return false;
}

}  // namespace spider

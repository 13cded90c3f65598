#include "src/extsort/profile_store.h"

#include <algorithm>
#include <fstream>
#include <string_view>
#include <vector>

#include "src/common/file_io.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/value_codec.h"

namespace spider {

namespace fs = std::filesystem;

namespace {

// Profile manifest format (binary, version 3). Integers are LEB128 varints
// (EncodeVarint, and SpanReader to decode) unless marked fixed64 (8 bytes,
// little-endian); a string is a varint length plus its raw bytes.
//
//   magic "SpPrfMan", version byte 3
//   set count; per set file, ascending by name:
//     name, file bytes, content fingerprint (fixed64), source fingerprint
//     (fixed64), distinct count
//   attribute count; per attribute, ascending by (table, column):
//     table, column, side count (>= 1), its source fingerprints (fixed64,
//     strictly ascending)
//   verdict count; then dependent groups until that many verdicts:
//     dependent side delta, group size (>= 1),
//     per verdict, ascending by referenced side:
//       (referenced side delta << 1) | satisfied
//   checksum: fixed64 HashString over every preceding byte
//
// Sides are numbered in file order — the first attribute's fingerprints,
// then the second's — so a side id names its attribute and its
// fingerprint. A group's dependent side is a delta from the previous
// group's, a referenced side a delta from the previous one in its group
// (both start at 0): over a dense candidate graph nearly every verdict is
// one byte. Only sides some verdict still refers to are written.
//
// The manifest is untrusted input. The checksum catches torn writes and
// bit flips; every count, length and id is checked against the bytes that
// remain and the table sizes before it is used or sized into an
// allocation. Any failure — another format's magic or version included,
// such as the pre-v2 text manifest or a v2 manifest, whose set entries
// also held a block count, min and max — loads an empty profile, which the
// next seal rewrites as v3.

constexpr std::string_view kMagic = "SpPrfMan";
constexpr char kVersion = 3;
constexpr size_t kChecksumBytes = 8;
// Fewest bytes one encoded element can take, for bounding counts.
constexpr size_t kMinSetBytes = 19;
constexpr size_t kMinAttributeBytes = 11;
constexpr size_t kFingerprintBytes = 8;
// Side ids share a 32-bit word with the satisfied bit.
constexpr uint64_t kMaxSides = uint64_t{1} << 31;

uint64_t PairKey(uint32_t dependent, uint32_t referenced) {
  return (uint64_t{dependent} << 32) | referenced;
}

}  // namespace

size_t ProfileStore::VerdictTable::SlotFor(uint64_t key) const {
  // A dependent's verdicts for 64 consecutive referenced ids share one
  // randomly placed run of slots (splitmix64 over the run's key), so a
  // sweep over one dependent's candidates, and a load in file order,
  // touches a few contiguous runs instead of a cache line per verdict.
  uint64_t run = key >> 6;
  run ^= run >> 30;
  run *= 0xBF58476D1CE4E5B9ULL;
  run ^= run >> 27;
  run *= 0x94D049BB133111EBULL;
  run ^= run >> 31;
  return static_cast<size_t>(run + (key & 63)) & (slots_.size() - 1);
}

void ProfileStore::VerdictTable::Reserve(size_t count) {
  // Linear probing stays short at a load factor of at most 3/4.
  size_t capacity = 16;
  while (capacity / 4 * 3 < count) capacity *= 2;
  if (capacity <= slots_.size()) return;
  std::vector<Entry> old = std::move(slots_);
  slots_.assign(capacity, Entry{kEmpty, 0, 0});
  const size_t mask = capacity - 1;
  for (const Entry& entry : old) {
    if (entry.key == kEmpty) continue;
    size_t slot = SlotFor(entry.key);
    while (slots_[slot].key != kEmpty) slot = (slot + 1) & mask;
    slots_[slot] = entry;
  }
}

const ProfileStore::VerdictTable::Entry* ProfileStore::VerdictTable::Find(
    uint64_t key) const {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  for (size_t slot = SlotFor(key);; slot = (slot + 1) & mask) {
    const Entry& entry = slots_[slot];
    if (entry.key == key) return &entry;
    if (entry.key == kEmpty) return nullptr;
  }
}

bool ProfileStore::VerdictTable::Put(uint64_t key, SideId dependent,
                                     SideId referenced, bool satisfied) {
  if ((size_ + 1) > slots_.size() / 4 * 3) Reserve(size_ + 1);
  const size_t mask = slots_.size() - 1;
  size_t slot = SlotFor(key);
  while (slots_[slot].key != kEmpty && slots_[slot].key != key) {
    slot = (slot + 1) & mask;
  }
  Entry& entry = slots_[slot];
  const bool inserted = entry.key == kEmpty;
  entry = Entry{key, dependent, (referenced << 1) | (satisfied ? 1u : 0u)};
  if (inserted) ++size_;
  return inserted;
}

ProfileStore::SideId ProfileStore::Contents::InternSide(
    const AttributeRef& attribute, uint64_t fingerprint) {
  const auto [id, inserted] = attribute_ids.try_emplace(
      attribute, static_cast<uint32_t>(attributes.size()));
  if (inserted) attributes.push_back(Attribute{&id->first, {}});
  std::vector<SideId>& own = attributes[id->second].sides;
  for (const SideId side : own) {
    if (sides[side].fingerprint == fingerprint) return side;
  }
  SPIDER_DCHECK(sides.size() < kMaxSides);
  const SideId side = static_cast<SideId>(sides.size());
  sides.push_back(Side{id->second, fingerprint});
  own.push_back(side);
  return side;
}

void ProfileStore::Contents::PutVerdict(const SideVerdict& verdict) {
  SPIDER_DCHECK(verdict.dependent < sides.size() &&
                verdict.referenced < sides.size());
  verdicts.Put(PairKey(sides[verdict.dependent].attribute,
                       sides[verdict.referenced].attribute),
               verdict.dependent, verdict.referenced, verdict.satisfied);
}

ProfileStore::ProfileStore(fs::path dir)
    : path_(std::move(dir) / kProfileManifestName) {}

uint64_t ProfileStore::StatsFingerprint(const ColumnStats& stats) {
  // Every field an append can move is folded in (an append always moves
  // row_count, so this can never miss a data change); the unit separator
  // keeps field boundaries significant for the value strings.
  std::string buf;
  auto add = [&buf](const std::string& field) {
    buf += field;
    buf += '\x1f';
  };
  add(std::to_string(stats.row_count));
  add(std::to_string(stats.null_count));
  add(std::to_string(stats.non_null_count));
  add(std::to_string(stats.distinct_count));
  add(stats.min_value ? "1" : "0");
  if (stats.min_value) add(*stats.min_value);
  add(stats.max_value ? "1" : "0");
  if (stats.max_value) add(*stats.max_value);
  return HashString(buf);
}

Result<uint64_t> ProfileStore::FileFingerprint(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open " + path.string() +
                           " for fingerprinting");
  }
  uint64_t hash = kFnvOffsetBasis;
  std::vector<char> buffer(64 << 10);
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const std::streamsize got = in.gcount();
    if (got > 0) {
      hash = HashString(
          std::string_view(buffer.data(), static_cast<size_t>(got)), hash);
    }
  }
  if (in.bad()) {
    return Status::IOError("failed reading " + path.string() +
                           " for fingerprinting");
  }
  return hash;
}

std::string ProfileStore::Encode(const Contents& contents) {
  std::string out(kMagic);
  out.push_back(kVersion);

  EncodeVarint(&out, contents.sets.size());
  for (const auto& [file_name, entry] : contents.sets) {
    AppendLengthPrefixed(&out, file_name);
    EncodeVarint(&out, static_cast<uint64_t>(entry.file_bytes));
    AppendFixed64(&out, entry.content_fingerprint);
    AppendFixed64(&out, entry.source_fingerprint);
    EncodeVarint(&out, static_cast<uint64_t>(entry.distinct_count));
  }

  // Only sides some verdict refers to are written, renumbered in file
  // order: `file_side` maps an in-memory side to its file id.
  std::vector<bool> live(contents.sides.size(), false);
  contents.verdicts.ForEach([&](const VerdictTable::Entry& entry) {
    live[entry.dependent] = true;
    live[entry.referenced()] = true;
  });
  std::vector<uint32_t> order;
  order.reserve(contents.attributes.size());
  for (uint32_t id = 0; id < contents.attributes.size(); ++id) {
    const std::vector<SideId>& sides = contents.attributes[id].sides;
    if (std::any_of(sides.begin(), sides.end(),
                    [&](SideId side) { return live[side]; })) {
      order.push_back(id);
    }
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return *contents.attributes[a].name < *contents.attributes[b].name;
  });
  EncodeVarint(&out, order.size());
  std::vector<SideId> file_side(contents.sides.size(), kNoSide);
  SideId next_side = 0;
  std::vector<SideId> written;
  for (const uint32_t id : order) {
    const Contents::Attribute& attribute = contents.attributes[id];
    AppendLengthPrefixed(&out, attribute.name->table);
    AppendLengthPrefixed(&out, attribute.name->column);
    written.clear();
    for (const SideId side : attribute.sides) {
      if (live[side]) written.push_back(side);
    }
    std::sort(written.begin(), written.end(), [&](SideId a, SideId b) {
      return contents.sides[a].fingerprint < contents.sides[b].fingerprint;
    });
    EncodeVarint(&out, written.size());
    for (const SideId side : written) {
      AppendFixed64(&out, contents.sides[side].fingerprint);
      file_side[side] = next_side++;
    }
  }

  // Group the verdicts by file dependent side (a counting sort); within a
  // group, (referenced << 1 | satisfied) sorts by referenced side.
  std::vector<size_t> group_start(size_t{next_side} + 1, 0);
  contents.verdicts.ForEach([&](const VerdictTable::Entry& entry) {
    ++group_start[file_side[entry.dependent] + 1];
  });
  for (size_t i = 1; i < group_start.size(); ++i) {
    group_start[i] += group_start[i - 1];
  }
  std::vector<uint32_t> grouped(contents.verdicts.size());
  std::vector<size_t> fill(group_start.begin(), group_start.end() - 1);
  contents.verdicts.ForEach([&](const VerdictTable::Entry& entry) {
    grouped[fill[file_side[entry.dependent]]++] =
        (file_side[entry.referenced()] << 1) | (entry.satisfied() ? 1u : 0u);
  });
  EncodeVarint(&out, contents.verdicts.size());
  SideId previous_dependent = 0;
  for (SideId dependent = 0; dependent < next_side; ++dependent) {
    const auto begin = grouped.begin() + group_start[dependent];
    const auto end = grouped.begin() + group_start[dependent + 1];
    if (begin == end) continue;
    std::sort(begin, end);
    EncodeVarint(&out, dependent - previous_dependent);
    EncodeVarint(&out, static_cast<uint64_t>(end - begin));
    previous_dependent = dependent;
    uint32_t previous_referenced = 0;
    for (auto it = begin; it != end; ++it) {
      const uint32_t referenced = *it >> 1;
      EncodeVarint(&out, (uint64_t{referenced - previous_referenced} << 1) |
                             (*it & 1u));
      previous_referenced = referenced;
    }
  }

  AppendFixed64(&out, HashString(out));
  return out;
}

bool ProfileStore::Decode(std::string_view manifest, Contents* out) {
  const size_t header = kMagic.size() + 1;
  if (manifest.size() < header + kChecksumBytes) return false;
  const size_t body_end = manifest.size() - kChecksumBytes;
  if (DecodeFixed64(manifest.data() + body_end) !=
      HashString(manifest.substr(0, body_end))) {
    return false;  // torn write or bit flip — trust nothing
  }
  if (manifest.substr(0, kMagic.size()) != kMagic ||
      manifest[kMagic.size()] != kVersion) {
    return false;
  }
  SpanReader in(manifest.substr(header, body_end - header));
  Contents contents;

  uint64_t count = 0;
  if (!in.Count(kMinSetBytes, &count)) return false;
  for (uint64_t i = 0; i < count; ++i) {
    ProfileSetEntry entry;
    if (!in.String(&entry.file_name) || !in.Int64(&entry.file_bytes) ||
        !in.Fixed64(&entry.content_fingerprint) ||
        !in.Fixed64(&entry.source_fingerprint) ||
        !in.Int64(&entry.distinct_count)) {
      return false;
    }
    std::string key = entry.file_name;
    if (!contents.sets.emplace(std::move(key), std::move(entry)).second) {
      return false;
    }
  }

  if (!in.Count(kMinAttributeBytes, &count)) return false;
  contents.attributes.reserve(count);
  for (uint64_t id = 0; id < count; ++id) {
    AttributeRef name;
    uint64_t side_count = 0;
    if (!in.String(&name.table) || !in.String(&name.column) ||
        !in.Count(kFingerprintBytes, &side_count) || side_count == 0 ||
        side_count > kMaxSides - contents.sides.size()) {
      return false;
    }
    const auto [key, inserted] = contents.attribute_ids.emplace(
        std::move(name), static_cast<uint32_t>(id));
    if (!inserted) return false;
    Contents::Attribute& attribute = contents.attributes.emplace_back(
        Contents::Attribute{&key->first, {}});
    attribute.sides.reserve(side_count);
    for (uint64_t i = 0; i < side_count; ++i) {
      uint64_t fingerprint = 0;
      if (!in.Fixed64(&fingerprint)) return false;
      if (i > 0 && fingerprint <= contents.sides.back().fingerprint) {
        return false;  // not ascending, so possibly not distinct
      }
      attribute.sides.push_back(static_cast<SideId>(contents.sides.size()));
      contents.sides.push_back(
          Contents::Side{static_cast<uint32_t>(id), fingerprint});
    }
  }

  uint64_t total = 0;
  if (!in.Count(1, &total)) return false;
  contents.verdicts.Reserve(total);
  const uint64_t side_count = contents.sides.size();
  uint64_t dependent = 0;
  for (uint64_t decoded = 0; decoded < total;) {
    uint64_t step = 0;
    uint64_t group = 0;
    if (!in.Varint(&step) || step >= side_count - dependent ||
        !in.Varint(&group) || group == 0 || group > total - decoded) {
      return false;
    }
    dependent += step;
    uint64_t referenced = 0;
    for (uint64_t i = 0; i < group; ++i) {
      uint64_t packed = 0;
      if (!in.Varint(&packed) || (packed >> 1) >= side_count - referenced) {
        return false;
      }
      referenced += packed >> 1;
      // One verdict per attribute pair: a repeat is damage.
      const uint64_t key =
          PairKey(contents.sides[dependent].attribute,
                  contents.sides[referenced].attribute);
      if (!contents.verdicts.Put(key, static_cast<SideId>(dependent),
                                 static_cast<SideId>(referenced),
                                 (packed & 1) != 0)) {
        return false;
      }
    }
    decoded += group;
  }
  if (in.remaining() != 0) return false;
  *out = std::move(contents);
  return true;
}

void ProfileStore::Load() {
  // A missing or unreadable file is simply no profile yet, and anything
  // Decode rejects is an empty profile too.
  Contents loaded;
  if (const Result<std::string> manifest = ReadFileBytes(path_);
      manifest.ok()) {
    Decode(*manifest, &loaded);  // on failure `loaded` stays empty
  }
  MutexLock lock(&mutex_);
  contents_ = std::move(loaded);
}

Status ProfileStore::Save() const {
  MutexLock save_lock(&save_mutex_);
  std::string manifest;
  {
    MutexLock lock(&mutex_);
    manifest = Encode(contents_);
  }
  return WriteFileAtomically(path_, manifest);
}

std::optional<ProfileSetEntry> ProfileStore::FindSet(
    const std::string& file_name) const {
  MutexLock lock(&mutex_);
  const auto it = contents_.sets.find(file_name);
  if (it == contents_.sets.end()) return std::nullopt;
  return it->second;
}

void ProfileStore::PutSet(ProfileSetEntry entry) {
  MutexLock lock(&mutex_);
  contents_.sets[entry.file_name] = std::move(entry);
}

std::vector<ProfileStore::SideId> ProfileStore::InternSides(
    const std::vector<SideKey>& keys) {
  std::vector<SideId> sides;
  sides.reserve(keys.size());
  MutexLock lock(&mutex_);
  for (const SideKey& key : keys) {
    sides.push_back(contents_.InternSide(*key.attribute, key.fingerprint));
  }
  return sides;
}

std::vector<std::optional<bool>> ProfileStore::FindVerdicts(
    const std::vector<std::pair<SideId, SideId>>& pairs) const {
  std::vector<std::optional<bool>> outcomes(pairs.size());
  MutexLock lock(&mutex_);
  const std::vector<Contents::Side>& sides = contents_.sides;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [dependent, referenced] = pairs[i];
    if (dependent == kNoSide || referenced == kNoSide) continue;
    SPIDER_DCHECK(dependent < sides.size() && referenced < sides.size());
    const VerdictTable::Entry* entry = contents_.verdicts.Find(
        PairKey(sides[dependent].attribute, sides[referenced].attribute));
    if (entry != nullptr && entry->dependent == dependent &&
        entry->referenced() == referenced) {
      outcomes[i] = entry->satisfied();
    }
  }
  return outcomes;
}

void ProfileStore::PutVerdicts(const std::vector<SideVerdict>& verdicts) {
  MutexLock lock(&mutex_);
  contents_.verdicts.Reserve(contents_.verdicts.size() + verdicts.size());
  for (const SideVerdict& verdict : verdicts) contents_.PutVerdict(verdict);
}

std::optional<ProfileVerdict> ProfileStore::FindVerdict(
    const AttributeRef& dependent, const AttributeRef& referenced) const {
  MutexLock lock(&mutex_);
  const auto dependent_id = contents_.attribute_ids.find(dependent);
  const auto referenced_id = contents_.attribute_ids.find(referenced);
  if (dependent_id == contents_.attribute_ids.end() ||
      referenced_id == contents_.attribute_ids.end()) {
    return std::nullopt;
  }
  const VerdictTable::Entry* entry = contents_.verdicts.Find(
      PairKey(dependent_id->second, referenced_id->second));
  if (entry == nullptr) return std::nullopt;
  ProfileVerdict verdict;
  verdict.satisfied = entry->satisfied();
  verdict.dependent_fingerprint = contents_.sides[entry->dependent].fingerprint;
  verdict.referenced_fingerprint =
      contents_.sides[entry->referenced()].fingerprint;
  return verdict;
}

void ProfileStore::PutVerdict(const AttributeRef& dependent,
                              const AttributeRef& referenced,
                              ProfileVerdict verdict) {
  MutexLock lock(&mutex_);
  const SideId dependent_side =
      contents_.InternSide(dependent, verdict.dependent_fingerprint);
  const SideId referenced_side =
      contents_.InternSide(referenced, verdict.referenced_fingerprint);
  contents_.PutVerdict(
      SideVerdict{dependent_side, referenced_side, verdict.satisfied});
}

int64_t ProfileStore::set_count() const {
  MutexLock lock(&mutex_);
  return static_cast<int64_t>(contents_.sets.size());
}

int64_t ProfileStore::verdict_count() const {
  MutexLock lock(&mutex_);
  return static_cast<int64_t>(contents_.verdicts.size());
}

}  // namespace spider

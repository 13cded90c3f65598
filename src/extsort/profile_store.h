// Persistent profile of a workspace: which sorted value sets exist on disk,
// what source data they were sealed under, and which candidate verdicts
// were already verified — "spider_profile.manifest", written next to the
// ".set" files (and, for a disk workspace profiled in place, next to
// "spider_store.manifest").
//
// The profile is a cache, never a source of truth: every entry carries two
// fingerprints — a source fingerprint over the originating column
// statistics (stale the moment an append changes the column) and a content
// fingerprint over the set file's bytes (stale the moment the file is
// truncated, bit-flipped or replaced). A mismatch of either silently falls
// back to re-extraction / re-verification; a corrupt, foreign-format or
// missing manifest loads as an empty profile. Nothing in this file may
// crash the profiler.
//
// Verdicts are interned. Each (table, column) is stored once under a dense
// attribute id, each (attribute, source fingerprint) a verdict was decided
// under once as a SideId, and a verdict is a 16-byte entry in one hash
// table keyed by the packed (dependent, referenced) attribute ids — no
// verdict owns a string. Hot callers resolve their attributes to sides once
// (InternSides) and then look up and record whole batches by id under one
// lock; the AttributeRef overloads are thin wrappers over the same table.
// The manifest (binary, format v3) writes each attribute name once and
// each verdict as about one byte; see profile_store.cc.

#pragma once

#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/result.h"
#include "src/common/thread_annotations.h"
#include "src/storage/catalog.h"
#include "src/storage/column_stats.h"

namespace spider {

/// Name of the profile manifest inside a set-file directory.
inline constexpr const char* kProfileManifestName = "spider_profile.manifest";

/// One persisted set file: identity (file name), the data it was extracted
/// from (source fingerprint over the column statistics), the exact bytes it
/// was sealed as (content fingerprint), and the SortedSetInfo it reopens
/// as without touching the data.
struct ProfileSetEntry {
  std::string file_name;
  int64_t file_bytes = 0;
  /// Chained FNV-1a over the set file's bytes (ProfileStore::FileFingerprint).
  uint64_t content_fingerprint = 0;
  /// ProfileStore::StatsFingerprint of the source column (chained over the
  /// components for composite sets).
  uint64_t source_fingerprint = 0;
  int64_t distinct_count = 0;
};

/// A remembered exact-IND verdict for one (dependent, referenced) pair,
/// valid only while both sides' source fingerprints still match.
struct ProfileVerdict {
  bool satisfied = false;
  uint64_t dependent_fingerprint = 0;
  uint64_t referenced_fingerprint = 0;
};

/// \brief Thread-safe store backing spider_profile.manifest.
///
/// Load() tolerates any corruption (missing file, torn write, bit flip,
/// hostile counts — the manifest carries a whole-file checksum and every
/// count and id is bounds-checked) by starting empty; Save() commits
/// atomically via a uniquely named temp file and a rename, one writer at a
/// time per store. Stores in other processes may seal the same manifest:
/// each rename replaces the file whole, and the last one wins.
class ProfileStore {
 public:
  /// One interned (attribute, source fingerprint): a side of a verdict.
  using SideId = uint32_t;
  /// No side (e.g. an attribute without statistics): a pair naming it
  /// never matches a remembered verdict.
  static constexpr SideId kNoSide = std::numeric_limits<SideId>::max();

  /// An attribute under the source fingerprint a caller sees it with.
  /// `attribute` must outlive the call it is passed to.
  struct SideKey {
    const AttributeRef* attribute = nullptr;
    uint64_t fingerprint = 0;
  };

  /// A verdict by sides: whether dependent ⊆ referenced held while both
  /// attributes carried their sides' fingerprints.
  struct SideVerdict {
    SideId dependent = kNoSide;
    SideId referenced = kNoSide;
    bool satisfied = false;
  };

  /// The manifest lives at `dir`/spider_profile.manifest. Nothing is read
  /// until Load().
  explicit ProfileStore(std::filesystem::path dir);

  /// Fingerprint of the statistics a column was sealed under. Any data
  /// change an append can make moves at least row_count, so stale sets and
  /// verdicts are always detected.
  static uint64_t StatsFingerprint(const ColumnStats& stats);

  /// Chained FNV-1a over a file's bytes (streamed; bounded memory).
  [[nodiscard]]
  static Result<uint64_t> FileFingerprint(const std::filesystem::path& path);

  /// Replaces the in-memory profile with the manifest's contents. A
  /// missing, torn, checksum-failing or pre-v3 manifest loads as empty —
  /// reusing nothing is always safe.
  void Load() SPIDER_EXCLUDES(mutex_);

  /// Atomically rewrites the manifest from the in-memory profile. Concurrent
  /// calls are serialized; lookups wait only for the in-memory snapshot,
  /// never for the file I/O.
  [[nodiscard]]
  Status Save() const SPIDER_EXCLUDES(mutex_, save_mutex_);

  std::optional<ProfileSetEntry> FindSet(const std::string& file_name) const
      SPIDER_EXCLUDES(mutex_);
  void PutSet(ProfileSetEntry entry) SPIDER_EXCLUDES(mutex_);

  /// Resolves every key to its side under one lock, interning unseen
  /// attributes and fingerprints (a side no verdict refers to is never
  /// saved). Side ids stay valid until the next Load().
  std::vector<SideId> InternSides(const std::vector<SideKey>& keys)
      SPIDER_EXCLUDES(mutex_);

  /// Looks up every (dependent, referenced) side pair under one lock.
  /// Entry i is the remembered outcome when the store holds a verdict for
  /// pair i's attributes decided under exactly those sides, nullopt
  /// otherwise (always when either side is kNoSide).
  std::vector<std::optional<bool>> FindVerdicts(
      const std::vector<std::pair<SideId, SideId>>& pairs) const
      SPIDER_EXCLUDES(mutex_);
  /// Records every verdict under one lock, replacing any earlier verdict
  /// for the same attribute pair. Sides must come from InternSides.
  void PutVerdicts(const std::vector<SideVerdict>& verdicts)
      SPIDER_EXCLUDES(mutex_);

  /// Single-pair wrappers over the id path: a hash lookup of both names
  /// (PutVerdict interns an unseen name or fingerprint), no string copies.
  std::optional<ProfileVerdict> FindVerdict(const AttributeRef& dependent,
                                            const AttributeRef& referenced)
      const SPIDER_EXCLUDES(mutex_);
  void PutVerdict(const AttributeRef& dependent,
                  const AttributeRef& referenced, ProfileVerdict verdict)
      SPIDER_EXCLUDES(mutex_);

  int64_t set_count() const SPIDER_EXCLUDES(mutex_);
  int64_t verdict_count() const SPIDER_EXCLUDES(mutex_);

 private:
  // Open-addressing (linear probing) map from the packed (dependent,
  // referenced) attribute ids to the sides the pair's verdict was decided
  // under.
  class VerdictTable {
   public:
    struct Entry {
      uint64_t key;
      SideId dependent;
      uint32_t referenced_and_satisfied;  // referenced side << 1 | bit

      SideId referenced() const { return referenced_and_satisfied >> 1; }
      bool satisfied() const { return (referenced_and_satisfied & 1) != 0; }
    };

    size_t size() const { return size_; }
    /// Sizes the table for `count` entries without further growth.
    void Reserve(size_t count);
    const Entry* Find(uint64_t key) const;
    /// Inserts or overwrites; returns true when `key` was new.
    bool Put(uint64_t key, SideId dependent, SideId referenced,
             bool satisfied);
    /// Every occupied entry, in table order.
    template <typename Fn>
    void ForEach(Fn&& fn) const {
      for (const Entry& entry : slots_) {
        if (entry.key != kEmpty) fn(entry);
      }
    }

   private:
    static constexpr uint64_t kEmpty = ~uint64_t{0};
    size_t SlotFor(uint64_t key) const;

    std::vector<Entry> slots_;  // power-of-two size, or empty
    size_t size_ = 0;
  };

  // Everything Load() replaces and Save() writes. Attribute names live
  // once, as the keys of `attribute_ids`; `attributes[id].name` points at
  // that key (node-based, so the pointer survives rehashing and moves —
  // hence no copies).
  struct Contents {
    struct Attribute {
      const AttributeRef* name;
      std::vector<SideId> sides;  // usually one; more after an append
    };
    struct Side {
      uint32_t attribute;
      uint64_t fingerprint;
    };

    Contents() = default;
    Contents(Contents&&) = default;
    Contents& operator=(Contents&&) = default;
    Contents(const Contents&) = delete;
    Contents& operator=(const Contents&) = delete;

    SideId InternSide(const AttributeRef& attribute, uint64_t fingerprint);
    void PutVerdict(const SideVerdict& verdict);

    std::map<std::string, ProfileSetEntry> sets;
    std::unordered_map<AttributeRef, uint32_t, AttributeRefHash>
        attribute_ids;
    std::vector<Attribute> attributes;
    std::vector<Side> sides;
    VerdictTable verdicts;
  };

  /// The manifest bytes for `contents` (canonical: the same profile always
  /// encodes to the same bytes, whatever order it was built in).
  static std::string Encode(const Contents& contents);
  /// Parses a whole manifest; false on any damage, hostile count or
  /// foreign format.
  static bool Decode(std::string_view manifest, Contents* out);

  std::filesystem::path path_;
  mutable Mutex mutex_;
  // Held across Save()'s snapshot, write and rename, so concurrent saves
  // commit one at a time, each from a snapshot at least as new as the one
  // before. Acquired before mutex_.
  mutable Mutex save_mutex_;
  Contents contents_ SPIDER_GUARDED_BY(mutex_);
};

}  // namespace spider

#ifndef ESD_CORE_INDEX_IO_H_
#define ESD_CORE_INDEX_IO_H_

#include <iosfwd>
#include <string>

#include "core/frozen_index.h"
#include "core/scorer.h"

namespace esd::core {

/// Binary serialization of the index, so a built index can be persisted
/// and loaded by later processes (the paper's motivating deployment: build
/// once in ~minutes, then answer queries in milliseconds forever).
///
/// One on-disk format, "ESDX" version 4 (native byte order):
///
///   magic "ESDX" | u32 version (4) | u32 scorer id (ScorerKind) |
///   the seven FrozenEsdIndex arrays as u64-length-prefixed contiguous
///   blocks (edges, live mask, multiset CSR offsets + pool, distinct sizes
///   C, slab offsets, slab entries) | u64 FNV-1a checksum
///
/// The checksum covers everything after the version, the scorer id
/// included, so a file built for one diversity scorer is never silently
/// loaded by another. Loading is validation + adoption, no rebuild step.
/// Any other version is a kFormatError. The treap engine persists through
/// the same image: save Freeze(index), load and Thaw().

/// Typed outcome of a checked load/save, so callers can distinguish "the
/// disk is broken" from "this file belongs to a different scorer".
enum class IndexIoStatus {
  kOk = 0,
  kIoError,         // cannot open / write failure (incl. injected faults)
  kFormatError,     // bad magic, version, truncation, checksum, validation
  kScorerMismatch,  // well-formed file, but built for a different scorer
  kUnknownScorer,   // scorer id field is not any known ScorerKind
};

struct IndexIoResult {
  IndexIoStatus status = IndexIoStatus::kOk;
  std::string message;  // empty on kOk
  explicit operator bool() const { return status == IndexIoStatus::kOk; }
};

bool SaveFrozenIndex(const FrozenEsdIndex& index, const std::string& path,
                     std::string* error);
bool LoadFrozenIndex(const std::string& path, FrozenEsdIndex* index,
                     std::string* error);

/// Checked variant: fails with kScorerMismatch when the file's scorer id
/// differs from `expected_scorer`. The bool API above accepts any scorer
/// and stamps it on the loaded index.
IndexIoResult LoadFrozenIndex(const std::string& path, FrozenEsdIndex* index,
                              ScorerKind expected_scorer);

/// Stream variants (used by the file functions and by tests).
bool SerializeFrozenIndex(const FrozenEsdIndex& index, std::ostream& out,
                          std::string* error);
bool DeserializeFrozenIndex(std::istream& in, FrozenEsdIndex* index,
                            std::string* error);

IndexIoResult DeserializeFrozenIndex(std::istream& in, FrozenEsdIndex* index,
                                     ScorerKind expected_scorer);

}  // namespace esd::core

#endif  // ESD_CORE_INDEX_IO_H_

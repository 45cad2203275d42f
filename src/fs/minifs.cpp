#include "fs/minifs.hpp"

#include <algorithm>
#include <cstring>

#include "support/common.hpp"

namespace osiris::fs {

using kernel::E_EXIST;
using kernel::E_FBIG;
using kernel::E_INVAL;
using kernel::E_ISDIR;
using kernel::E_NAMETOOLONG;
using kernel::E_NOENT;
using kernel::E_NOSPC;
using kernel::E_NOTDIR;
using kernel::E_NOTEMPTY;
using kernel::OK;

namespace {

constexpr std::size_t kInodesPerBlock = kBlockSize / sizeof(DiskInode);
constexpr std::size_t kEntriesPerBlock = kBlockSize / sizeof(DirEntry);

bool name_ok(std::string_view name) {
  return !name.empty() && name.size() <= kNameMax && name.find('/') == std::string_view::npos;
}

}  // namespace

void MiniFs::mkfs(BlockDevice& dev, std::uint32_t ninodes) {
  const auto nblocks = static_cast<std::uint32_t>(dev.num_blocks());
  OSIRIS_ASSERT(nblocks >= 16);

  SuperBlock sb;
  sb.magic = kFsMagic;
  sb.nblocks = nblocks;
  sb.ninodes = ninodes;
  sb.bitmap_start = 1;
  sb.bitmap_blocks = (nblocks / 8 + kBlockSize - 1) / kBlockSize;
  sb.inode_start = sb.bitmap_start + sb.bitmap_blocks;
  sb.inode_blocks =
      static_cast<std::uint32_t>((ninodes + kInodesPerBlock - 1) / kInodesPerBlock);
  sb.data_start = sb.inode_start + sb.inode_blocks;
  sb.root_ino = kRootIno;
  OSIRIS_ASSERT(sb.data_start < nblocks);

  alignas(8) std::byte blk[kBlockSize] = {};
  std::memcpy(blk, &sb, sizeof sb);
  dev.write_now(0, std::span<const std::byte, kBlockSize>(blk));

  // Bitmap: mark metadata blocks (superblock + bitmap + inode table) used.
  std::memset(blk, 0, sizeof blk);
  for (std::uint32_t b = sb.bitmap_start; b < sb.bitmap_start + sb.bitmap_blocks; ++b) {
    std::memset(blk, 0, sizeof blk);
    for (std::uint32_t bit = 0; bit < kBlockSize * 8; ++bit) {
      const std::uint32_t bno = (b - sb.bitmap_start) * kBlockSize * 8 + bit;
      if (bno < sb.data_start && bno < nblocks) {
        blk[bit / 8] |= static_cast<std::byte>(1u << (bit % 8));
      }
      if (bno >= nblocks) {
        // Past the end of the device: mark used so it is never allocated.
        blk[bit / 8] |= static_cast<std::byte>(1u << (bit % 8));
      }
    }
    dev.write_now(b, std::span<const std::byte, kBlockSize>(blk));
  }

  // Inode table: all free except the root directory.
  for (std::uint32_t b = 0; b < sb.inode_blocks; ++b) {
    std::memset(blk, 0, sizeof blk);
    if (b == 0) {
      // Inode numbers are 1-based; slot index = ino - 1.
      auto* inodes = reinterpret_cast<DiskInode*>(blk);
      DiskInode root;
      root.mode = static_cast<std::uint16_t>(FileType::kDirectory);
      root.nlinks = 1;
      inodes[kRootIno - 1] = root;
    }
    dev.write_now(sb.inode_start + b, std::span<const std::byte, kBlockSize>(blk));
  }
}

std::int64_t MiniFs::mount() {
  alignas(8) std::byte blk[kBlockSize];
  store_.read_block(0, std::span<std::byte, kBlockSize>(blk));
  std::memcpy(&sb_, blk, sizeof sb_);
  if (sb_.magic != kFsMagic || sb_.data_start >= sb_.nblocks) return E_INVAL;
  mounted_ = true;
  return OK;
}

bool MiniFs::valid_ino(Ino ino) const { return ino >= 1 && ino <= sb_.ninodes; }

DiskInode MiniFs::load_inode(Ino ino) {
  OSIRIS_ASSERT(valid_ino(ino));
  const std::uint32_t blk_idx = (ino - 1) / kInodesPerBlock;
  const std::uint32_t slot = (ino - 1) % kInodesPerBlock;
  DiskInode di;
  if (const std::byte* p = store_.peek_block(sb_.inode_start + blk_idx)) {
    std::memcpy(&di, p + slot * sizeof(DiskInode), sizeof di);
    return di;
  }
  alignas(8) std::byte blk[kBlockSize];
  store_.read_block(sb_.inode_start + blk_idx, std::span<std::byte, kBlockSize>(blk));
  std::memcpy(&di, blk + slot * sizeof(DiskInode), sizeof di);
  return di;
}

void MiniFs::store_inode(Ino ino, const DiskInode& di) {
  OSIRIS_ASSERT(valid_ino(ino));
  const std::uint32_t blk_idx = (ino - 1) / kInodesPerBlock;
  const std::uint32_t slot = (ino - 1) % kInodesPerBlock;
  alignas(8) std::byte blk[kBlockSize];
  store_.read_block(sb_.inode_start + blk_idx, std::span<std::byte, kBlockSize>(blk));
  std::memcpy(blk + slot * sizeof(DiskInode), &di, sizeof di);
  store_.write_block(sb_.inode_start + blk_idx, std::span<const std::byte, kBlockSize>(blk));
}

std::uint32_t MiniFs::alloc_block() {
  alignas(8) std::byte blk[kBlockSize];
  for (std::uint32_t b = 0; b < sb_.bitmap_blocks; ++b) {
    store_.read_block(sb_.bitmap_start + b, std::span<std::byte, kBlockSize>(blk));
    for (std::uint32_t byte = 0; byte < kBlockSize; ++byte) {
      if (blk[byte] == static_cast<std::byte>(0xff)) continue;
      for (std::uint32_t bit = 0; bit < 8; ++bit) {
        const auto mask = static_cast<std::byte>(1u << bit);
        if ((blk[byte] & mask) == std::byte{0}) {
          const std::uint32_t bno = b * kBlockSize * 8 + byte * 8 + bit;
          if (bno >= sb_.nblocks) return 0;
          blk[byte] |= mask;
          store_.write_block(sb_.bitmap_start + b, std::span<const std::byte, kBlockSize>(blk));
          // Zero the freshly allocated block.
          alignas(8) std::byte zero[kBlockSize] = {};
          store_.write_block(bno, std::span<const std::byte, kBlockSize>(zero));
          return bno;
        }
      }
    }
  }
  return 0;
}

void MiniFs::free_block(std::uint32_t bno) {
  OSIRIS_ASSERT(bno >= sb_.data_start && bno < sb_.nblocks);
  const std::uint32_t b = bno / (kBlockSize * 8);
  const std::uint32_t byte = (bno % (kBlockSize * 8)) / 8;
  const auto mask = static_cast<std::byte>(1u << (bno % 8));
  alignas(8) std::byte blk[kBlockSize];
  store_.read_block(sb_.bitmap_start + b, std::span<std::byte, kBlockSize>(blk));
  blk[byte] &= ~mask;
  store_.write_block(sb_.bitmap_start + b, std::span<const std::byte, kBlockSize>(blk));
}

Ino MiniFs::alloc_inode(FileType type) {
  for (Ino ino = 1; ino <= sb_.ninodes; ++ino) {
    DiskInode di = load_inode(ino);
    if (di.mode == static_cast<std::uint16_t>(FileType::kFree)) {
      di = DiskInode{};
      di.mode = static_cast<std::uint16_t>(type);
      di.nlinks = 1;
      store_inode(ino, di);
      return ino;
    }
  }
  return kNoIno;
}

void MiniFs::free_inode(Ino ino) {
  DiskInode di;  // all zero: FileType::kFree
  store_inode(ino, di);
}

std::uint32_t MiniFs::bmap(DiskInode& di, bool* dirty, std::uint32_t fbn, bool alloc) {
  if (fbn < kDirect) {
    if (di.direct[fbn] == 0 && alloc) {
      di.direct[fbn] = alloc_block();
      if (di.direct[fbn] != 0) *dirty = true;
    }
    return di.direct[fbn];
  }
  const std::uint32_t idx = fbn - kDirect;
  if (idx >= kPtrsPerBlock) return 0;
  if (di.indirect == 0) {
    if (!alloc) return 0;
    di.indirect = alloc_block();
    if (di.indirect == 0) return 0;
    *dirty = true;
  }
  alignas(8) std::byte blk[kBlockSize];
  store_.read_block(di.indirect, std::span<std::byte, kBlockSize>(blk));
  auto* ptrs = reinterpret_cast<std::uint32_t*>(blk);
  if (ptrs[idx] == 0 && alloc) {
    ptrs[idx] = alloc_block();
    if (ptrs[idx] != 0) {
      store_.write_block(di.indirect, std::span<const std::byte, kBlockSize>(blk));
    }
  }
  return ptrs[idx];
}

const std::uint32_t* MiniFs::peek_indirect(const DiskInode& di) {
  if (di.indirect == 0) return nullptr;
  return reinterpret_cast<const std::uint32_t*>(store_.peek_block(di.indirect));
}

std::int64_t MiniFs::lookup(Ino dir, std::string_view name) {
  if (!valid_ino(dir)) return E_INVAL;
  if (!name_ok(name)) return name.size() > kNameMax ? E_NAMETOOLONG : E_INVAL;
  DiskInode di = load_inode(dir);
  if (di.mode != static_cast<std::uint16_t>(FileType::kDirectory)) return E_NOTDIR;

  const std::uint32_t nentries = di.size / sizeof(DirEntry);
  alignas(8) std::byte blk[kBlockSize];
  bool dirty = false;
  for (std::uint32_t e = 0; e < nentries; ++e) {
    const std::uint32_t fbn = static_cast<std::uint32_t>(e / kEntriesPerBlock);
    const std::uint32_t slot = e % kEntriesPerBlock;
    if (slot == 0) {
      const std::uint32_t bno = bmap(di, &dirty, fbn, false);
      if (bno == 0) continue;
      store_.read_block(bno, std::span<std::byte, kBlockSize>(blk));
    }
    const auto* de = reinterpret_cast<const DirEntry*>(blk) + slot;
    if (de->ino != kNoIno && name == de->name) return de->ino;
  }
  return E_NOENT;
}

std::int64_t MiniFs::dir_add(Ino dir, std::string_view name, Ino target) {
  DiskInode di = load_inode(dir);
  const std::uint32_t nentries = di.size / sizeof(DirEntry);
  alignas(8) std::byte blk[kBlockSize];
  bool dirty = false;

  DirEntry entry;
  entry.ino = target;
  std::memcpy(entry.name, name.data(), name.size());
  entry.name[name.size()] = '\0';

  // Reuse a free slot if one exists.
  for (std::uint32_t e = 0; e < nentries; ++e) {
    const auto fbn = static_cast<std::uint32_t>(e / kEntriesPerBlock);
    const std::uint32_t slot = e % kEntriesPerBlock;
    const std::uint32_t bno = bmap(di, &dirty, fbn, false);
    if (bno == 0) continue;
    store_.read_block(bno, std::span<std::byte, kBlockSize>(blk));
    auto* de = reinterpret_cast<DirEntry*>(blk) + slot;
    if (de->ino == kNoIno) {
      *de = entry;
      store_.write_block(bno, std::span<const std::byte, kBlockSize>(blk));
      return OK;
    }
  }

  // Append a new slot.
  const auto fbn = static_cast<std::uint32_t>(nentries / kEntriesPerBlock);
  const std::uint32_t slot = nentries % kEntriesPerBlock;
  const std::uint32_t bno = bmap(di, &dirty, fbn, true);
  if (bno == 0) return E_NOSPC;
  store_.read_block(bno, std::span<std::byte, kBlockSize>(blk));
  auto* de = reinterpret_cast<DirEntry*>(blk) + slot;
  *de = entry;
  store_.write_block(bno, std::span<const std::byte, kBlockSize>(blk));
  di.size += sizeof(DirEntry);
  store_inode(dir, di);
  return OK;
}

std::int64_t MiniFs::dir_remove(Ino dir, std::string_view name) {
  DiskInode di = load_inode(dir);
  const std::uint32_t nentries = di.size / sizeof(DirEntry);
  alignas(8) std::byte blk[kBlockSize];
  bool dirty = false;
  for (std::uint32_t e = 0; e < nentries; ++e) {
    const auto fbn = static_cast<std::uint32_t>(e / kEntriesPerBlock);
    const std::uint32_t slot = e % kEntriesPerBlock;
    const std::uint32_t bno = bmap(di, &dirty, fbn, false);
    if (bno == 0) continue;
    store_.read_block(bno, std::span<std::byte, kBlockSize>(blk));
    auto* de = reinterpret_cast<DirEntry*>(blk) + slot;
    if (de->ino != kNoIno && name == de->name) {
      de->ino = kNoIno;
      store_.write_block(bno, std::span<const std::byte, kBlockSize>(blk));
      return OK;
    }
  }
  return E_NOENT;
}

bool MiniFs::dir_empty(Ino dir) {
  DiskInode di = load_inode(dir);
  const std::uint32_t nentries = di.size / sizeof(DirEntry);
  alignas(8) std::byte blk[kBlockSize];
  bool dirty = false;
  for (std::uint32_t e = 0; e < nentries; ++e) {
    const auto fbn = static_cast<std::uint32_t>(e / kEntriesPerBlock);
    const std::uint32_t slot = e % kEntriesPerBlock;
    const std::uint32_t bno = bmap(di, &dirty, fbn, false);
    if (bno == 0) continue;
    store_.read_block(bno, std::span<std::byte, kBlockSize>(blk));
    const auto* de = reinterpret_cast<const DirEntry*>(blk) + slot;
    if (de->ino != kNoIno) return false;
  }
  return true;
}

std::int64_t MiniFs::create(Ino dir, std::string_view name, FileType type) {
  if (!valid_ino(dir)) return E_INVAL;
  if (name.size() > kNameMax) return E_NAMETOOLONG;
  if (!name_ok(name)) return E_INVAL;
  DiskInode dd = load_inode(dir);
  if (dd.mode != static_cast<std::uint16_t>(FileType::kDirectory)) return E_NOTDIR;
  if (lookup(dir, name) >= 0) return E_EXIST;

  const Ino ino = alloc_inode(type);
  if (ino == kNoIno) return E_NOSPC;
  const std::int64_t r = dir_add(dir, name, ino);
  if (r != OK) {
    free_inode(ino);
    return r;
  }
  return ino;
}

std::int64_t MiniFs::unlink(Ino dir, std::string_view name) {
  const std::int64_t found = lookup(dir, name);
  if (found < 0) return found;
  const auto ino = static_cast<Ino>(found);
  DiskInode di = load_inode(ino);
  if (di.mode == static_cast<std::uint16_t>(FileType::kDirectory)) return E_ISDIR;

  const std::int64_t r = dir_remove(dir, name);
  if (r != OK) return r;
  if (di.nlinks <= 1) {
    release_blocks(di);
    free_inode(ino);
  } else {
    --di.nlinks;
    store_inode(ino, di);
  }
  return OK;
}

std::int64_t MiniFs::rmdir(Ino dir, std::string_view name) {
  const std::int64_t found = lookup(dir, name);
  if (found < 0) return found;
  const auto ino = static_cast<Ino>(found);
  DiskInode di = load_inode(ino);
  if (di.mode != static_cast<std::uint16_t>(FileType::kDirectory)) return E_NOTDIR;
  if (!dir_empty(ino)) return E_NOTEMPTY;

  const std::int64_t r = dir_remove(dir, name);
  if (r != OK) return r;
  release_blocks(di);
  free_inode(ino);
  return OK;
}

std::int64_t MiniFs::rename(Ino dir, std::string_view from, std::string_view to) {
  if (!name_ok(to)) return to.size() > kNameMax ? E_NAMETOOLONG : E_INVAL;
  const std::int64_t found = lookup(dir, from);
  if (found < 0) return found;
  if (lookup(dir, to) >= 0) return E_EXIST;
  const std::int64_t r = dir_remove(dir, from);
  if (r != OK) return r;
  return dir_add(dir, to, static_cast<Ino>(found));
}

std::optional<DirEntry> MiniFs::readdir(Ino dir, std::size_t index) {
  if (!valid_ino(dir)) return std::nullopt;
  DiskInode di = load_inode(dir);
  if (di.mode != static_cast<std::uint16_t>(FileType::kDirectory)) return std::nullopt;
  const std::uint32_t nentries = di.size / sizeof(DirEntry);
  alignas(8) std::byte blk[kBlockSize];
  bool dirty = false;
  std::size_t seen = 0;
  for (std::uint32_t e = 0; e < nentries; ++e) {
    const auto fbn = static_cast<std::uint32_t>(e / kEntriesPerBlock);
    const std::uint32_t slot = e % kEntriesPerBlock;
    const std::uint32_t bno = bmap(di, &dirty, fbn, false);
    if (bno == 0) continue;
    store_.read_block(bno, std::span<std::byte, kBlockSize>(blk));
    const auto* de = reinterpret_cast<const DirEntry*>(blk) + slot;
    if (de->ino != kNoIno) {
      if (seen == index) return *de;
      ++seen;
    }
  }
  return std::nullopt;
}

std::int64_t MiniFs::read(Ino ino, std::uint32_t offset, std::span<std::byte> out) {
  if (!valid_ino(ino)) return E_INVAL;
  DiskInode di = load_inode(ino);
  if (di.mode == static_cast<std::uint16_t>(FileType::kFree)) return E_NOENT;
  if (offset >= di.size) return 0;

  const std::size_t want = std::min<std::size_t>(out.size(), di.size - offset);
  std::size_t done = 0;
  alignas(8) std::byte blk[kBlockSize];
  bool dirty = false;
  // Borrow the indirect block when a chunk first needs it instead of
  // re-reading it per data block. Any fallback read_block may evict the
  // borrowed entry, so drop the borrow after one.
  const std::uint32_t* ind = nullptr;
  while (done < want) {
    const std::uint32_t pos = offset + static_cast<std::uint32_t>(done);
    const std::uint32_t fbn = pos / kBlockSize;
    const std::uint32_t in_blk = pos % kBlockSize;
    const std::size_t chunk = std::min<std::size_t>(want - done, kBlockSize - in_blk);
    std::uint32_t bno;
    if (fbn < kDirect) {
      bno = di.direct[fbn];
    } else {
      if (ind == nullptr) ind = peek_indirect(di);
      bno = ind != nullptr && fbn - kDirect < kPtrsPerBlock ? ind[fbn - kDirect]
                                                            : bmap(di, &dirty, fbn, false);
    }
    if (bno == 0) {
      std::memset(out.data() + done, 0, chunk);  // hole
    } else if (const std::byte* p = store_.peek_block(bno)) {
      std::memcpy(out.data() + done, p + in_blk, chunk);
    } else {
      store_.read_block(bno, std::span<std::byte, kBlockSize>(blk));
      std::memcpy(out.data() + done, blk + in_blk, chunk);
      ind = nullptr;
    }
    done += chunk;
  }
  return static_cast<std::int64_t>(done);
}

std::int64_t MiniFs::write(Ino ino, std::uint32_t offset, std::span<const std::byte> in) {
  if (!valid_ino(ino)) return E_INVAL;
  DiskInode di = load_inode(ino);
  if (di.mode == static_cast<std::uint16_t>(FileType::kFree)) return E_NOENT;
  if (di.mode == static_cast<std::uint16_t>(FileType::kDirectory)) return E_ISDIR;
  if (offset + in.size() > kMaxFileSize) return E_FBIG;

  std::size_t done = 0;
  alignas(8) std::byte blk[kBlockSize];
  bool inode_dirty = false;
  while (done < in.size()) {
    const std::uint32_t pos = offset + static_cast<std::uint32_t>(done);
    const std::uint32_t fbn = pos / kBlockSize;
    const std::uint32_t in_blk = pos % kBlockSize;
    const std::size_t chunk = std::min<std::size_t>(in.size() - done, kBlockSize - in_blk);
    std::uint32_t bno = 0;
    if (fbn < kDirect) {
      bno = di.direct[fbn];
    } else if (fbn - kDirect < kPtrsPerBlock) {
      // Borrow the indirect block for the no-allocation steady state; bmap
      // (which may allocate and do its own block I/O) covers a missing
      // pointer. Every chunk ends in a store access that may evict the
      // borrow, so each chunk borrows afresh.
      if (const std::uint32_t* ind = peek_indirect(di)) bno = ind[fbn - kDirect];
    }
    if (bno == 0) {
      bno = bmap(di, &inode_dirty, fbn, true);
      if (bno == 0) break;  // disk full: partial write
    }
    if (chunk == kBlockSize) {
      // Full-block overwrite: write straight from the caller's buffer (under
      // VFS that is grant memory -> cache in a single copy).
      store_.write_block(bno,
                         std::span<const std::byte, kBlockSize>(in.data() + done, kBlockSize));
    } else {
      store_.read_block(bno, std::span<std::byte, kBlockSize>(blk));
      std::memcpy(blk + in_blk, in.data() + done, chunk);
      store_.write_block(bno, std::span<const std::byte, kBlockSize>(blk));
    }
    done += chunk;
  }
  const std::uint32_t end = offset + static_cast<std::uint32_t>(done);
  if (end > di.size) {
    di.size = end;
    inode_dirty = true;
  }
  if (inode_dirty) store_inode(ino, di);
  if (done == 0 && !in.empty()) return E_NOSPC;
  return static_cast<std::int64_t>(done);
}

std::int64_t MiniFs::truncate(Ino ino, std::uint32_t new_size) {
  if (!valid_ino(ino)) return E_INVAL;
  DiskInode di = load_inode(ino);
  if (di.mode != static_cast<std::uint16_t>(FileType::kRegular)) return E_INVAL;
  if (new_size >= di.size) {
    di.size = new_size;  // extension: holes read back as zeroes
    store_inode(ino, di);
    return OK;
  }
  // Shrink: free whole blocks past the new end.
  const std::uint32_t keep_blocks = (new_size + kBlockSize - 1) / kBlockSize;
  alignas(8) std::byte blk[kBlockSize];
  if (di.indirect != 0) {
    store_.read_block(di.indirect, std::span<std::byte, kBlockSize>(blk));
    auto* ptrs = reinterpret_cast<std::uint32_t*>(blk);
    bool any_left = false;
    for (std::uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      const std::uint32_t fbn = static_cast<std::uint32_t>(kDirect + i);
      if (ptrs[i] != 0 && fbn >= keep_blocks) {
        free_block(ptrs[i]);
        ptrs[i] = 0;
      } else if (ptrs[i] != 0) {
        any_left = true;
      }
    }
    if (!any_left) {
      free_block(di.indirect);
      di.indirect = 0;
    } else {
      store_.write_block(di.indirect, std::span<const std::byte, kBlockSize>(blk));
    }
  }
  for (std::uint32_t i = 0; i < kDirect; ++i) {
    if (di.direct[i] != 0 && i >= keep_blocks) {
      free_block(di.direct[i]);
      di.direct[i] = 0;
    }
  }
  di.size = new_size;
  store_inode(ino, di);
  return OK;
}

void MiniFs::release_blocks(DiskInode& di) {
  for (std::uint32_t i = 0; i < kDirect; ++i) {
    if (di.direct[i] != 0) {
      free_block(di.direct[i]);
      di.direct[i] = 0;
    }
  }
  if (di.indirect != 0) {
    alignas(8) std::byte blk[kBlockSize];
    store_.read_block(di.indirect, std::span<std::byte, kBlockSize>(blk));
    const auto* ptrs = reinterpret_cast<const std::uint32_t*>(blk);
    for (std::uint32_t i = 0; i < kPtrsPerBlock; ++i) {
      if (ptrs[i] != 0) free_block(ptrs[i]);
    }
    free_block(di.indirect);
    di.indirect = 0;
  }
  di.size = 0;
}

std::int64_t MiniFs::getattr(Ino ino, Attr* out) {
  if (!valid_ino(ino)) return E_INVAL;
  DiskInode di = load_inode(ino);
  if (di.mode == static_cast<std::uint16_t>(FileType::kFree)) return E_NOENT;
  out->type = static_cast<FileType>(di.mode);
  out->size = di.size;
  out->nlinks = di.nlinks;
  return OK;
}

std::uint32_t MiniFs::free_blocks() {
  std::uint32_t free = 0;
  alignas(8) std::byte blk[kBlockSize];
  for (std::uint32_t b = 0; b < sb_.bitmap_blocks; ++b) {
    store_.read_block(sb_.bitmap_start + b, std::span<std::byte, kBlockSize>(blk));
    for (std::uint32_t bit = 0; bit < kBlockSize * 8; ++bit) {
      const std::uint32_t bno = b * kBlockSize * 8 + bit;
      if (bno >= sb_.nblocks) break;
      if ((blk[bit / 8] & static_cast<std::byte>(1u << (bit % 8))) == std::byte{0}) ++free;
    }
  }
  return free;
}

}  // namespace osiris::fs

// MiniFS: a small UNIX-like on-disk filesystem (the MFS equivalent).
//
// Layout on a BlockDevice (block size fs::kBlockSize):
//   block 0                  superblock
//   [bitmap_start, ...)      block allocation bitmap (1 bit per block)
//   [inode_start, ...)       inode table (64-byte inodes)
//   [data_start, ...)        data blocks
//
// Files have 10 direct block pointers and one singly-indirect block.
// Directories are flat arrays of 32-byte entries.
//
// MiniFS performs all I/O through a BlockStore, which the VFS server backs
// with its block cache + the asynchronous device; any MiniFS call may
// therefore block the calling VFS worker thread on a cache miss. All errors
// are returned as negative kernel::Errno values.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

#include "fs/blockdev.hpp"
#include "kernel/message.hpp"

namespace osiris::fs {

using Ino = std::uint32_t;
inline constexpr Ino kNoIno = 0;
inline constexpr Ino kRootIno = 1;

inline constexpr std::size_t kNameMax = 27;
inline constexpr std::size_t kDirect = 10;
inline constexpr std::size_t kPtrsPerBlock = kBlockSize / sizeof(std::uint32_t);
inline constexpr std::size_t kMaxFileSize = (kDirect + kPtrsPerBlock) * kBlockSize;

enum class FileType : std::uint16_t { kFree = 0, kRegular = 1, kDirectory = 2 };

struct DiskInode {
  std::uint16_t mode = 0;  // FileType
  std::uint16_t nlinks = 0;
  std::uint32_t size = 0;
  std::uint32_t direct[kDirect] = {};
  std::uint32_t indirect = 0;
  std::uint32_t pad[3] = {};
};
static_assert(sizeof(DiskInode) == 64);

struct DirEntry {
  Ino ino = kNoIno;  // kNoIno marks a free slot
  char name[kNameMax + 1] = {};
};
static_assert(sizeof(DirEntry) == 32);

struct SuperBlock {
  std::uint32_t magic = 0;
  std::uint32_t nblocks = 0;
  std::uint32_t ninodes = 0;
  std::uint32_t bitmap_start = 0;
  std::uint32_t bitmap_blocks = 0;
  std::uint32_t inode_start = 0;
  std::uint32_t inode_blocks = 0;
  std::uint32_t data_start = 0;
  std::uint32_t root_ino = 0;
};

inline constexpr std::uint32_t kFsMagic = 0x051F1F5u;

struct Attr {
  FileType type = FileType::kFree;
  std::uint32_t size = 0;
  std::uint16_t nlinks = 0;
};

/// Abstract whole-block access; implemented by the VFS server on top of the
/// block cache and the asynchronous device (calls may block the fiber).
class BlockStore {
 public:
  virtual ~BlockStore() = default;
  virtual void read_block(std::uint32_t bno, std::span<std::byte, kBlockSize> out) = 0;
  virtual void write_block(std::uint32_t bno, std::span<const std::byte, kBlockSize> data) = 0;

  /// Borrow a read-only view of the block's current bytes when the store can
  /// serve them without blocking (a cache hit); nullptr otherwise — callers
  /// must then fall back to read_block. Borrowed pointers are invalidated by
  /// any later read_block/write_block (an insert may evict the borrowed
  /// entry), so consume or re-borrow after touching the store.
  virtual const std::byte* peek_block(std::uint32_t /*bno*/) { return nullptr; }
};

class MiniFs {
 public:
  explicit MiniFs(BlockStore& store) : store_(store) {}

  /// Format a device in place (synchronous; used at boot / in tests).
  static void mkfs(BlockDevice& dev, std::uint32_t ninodes = 224);

  /// Read and validate the superblock. Returns OK or E_INVAL.
  std::int64_t mount();

  [[nodiscard]] const SuperBlock& super() const noexcept { return sb_; }

  // --- namespace operations (all return negative Errno on failure) -----

  /// Find `name` in directory `dir`. Returns the inode number or an error.
  std::int64_t lookup(Ino dir, std::string_view name);

  /// Walk an absolute path to its parent directory (`*dir`) and final name
  /// (`*leaf`, a view into `path`); empty components are skipped. Returns OK,
  /// E_INVAL for a relative path or one without a final name ("/", a
  /// trailing '/'), or the error of the first component lookup that fails.
  std::int64_t resolve_parent(std::string_view path, Ino* dir, std::string_view* leaf);

  /// Inode of an absolute path ("/" is the root), or an error.
  std::int64_t resolve(std::string_view path);

  /// Create a regular file or directory entry `name` in `dir`.
  std::int64_t create(Ino dir, std::string_view name, FileType type);

  std::int64_t unlink(Ino dir, std::string_view name);
  std::int64_t rmdir(Ino dir, std::string_view name);
  std::int64_t rename(Ino dir, std::string_view from, std::string_view to);

  /// Directory entry at position `index` (skipping free slots); nullopt at end.
  std::optional<DirEntry> readdir(Ino dir, std::size_t index);

  // --- file I/O ---------------------------------------------------------

  std::int64_t read(Ino ino, std::uint32_t offset, std::span<std::byte> out);
  std::int64_t write(Ino ino, std::uint32_t offset, std::span<const std::byte> in);
  std::int64_t truncate(Ino ino, std::uint32_t new_size);

  std::int64_t getattr(Ino ino, Attr* out);

  /// Number of free data blocks (for statfs and tests).
  std::uint32_t free_blocks();

 private:
  DiskInode load_inode(Ino ino);
  void store_inode(Ino ino, const DiskInode& di);
  [[nodiscard]] bool valid_ino(Ino ino) const;

  std::uint32_t alloc_block();  // 0 if disk full
  void free_block(std::uint32_t bno);
  Ino alloc_inode(FileType type);  // kNoIno if table full
  void free_inode(Ino ino);

  /// Disk block holding file block `fbn`, allocating if requested; 0 if hole
  /// or allocation failure.
  std::uint32_t bmap(DiskInode& di, bool* dirty, std::uint32_t fbn, bool alloc);

  /// Borrow the indirect pointer block if the store can serve it without
  /// blocking; nullptr otherwise (or when the file has none). Invalidated by
  /// any store access — re-borrow after every read_block/write_block.
  const std::uint32_t* peek_indirect(const DiskInode& di);

  /// A scan over a directory's entry slots that reads each directory block
  /// once: `blk` holds disk block `bno`, the block of the slot last returned.
  struct DirCursor {
    std::uint32_t next = 0;  // index of the next slot to visit
    std::uint32_t bno = 0;
    alignas(8) std::byte blk[kBlockSize];
  };
  /// The next entry slot of directory `di`, free or in use, or nullptr past
  /// the last one; a hole skips its whole block. The slot points into
  /// cur->blk, which the caller writes back to cur->bno after changing it.
  DirEntry* next_entry(DiskInode& di, DirCursor* cur);

  std::int64_t dir_add(Ino dir, std::string_view name, Ino target);
  std::int64_t dir_remove(Ino dir, std::string_view name);
  [[nodiscard]] bool dir_empty(Ino dir);
  void release_blocks(DiskInode& di);

  BlockStore& store_;
  SuperBlock sb_{};
};

}  // namespace osiris::fs

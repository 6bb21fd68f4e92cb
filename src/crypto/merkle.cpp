#include "crypto/merkle.hpp"

#include "util/check.hpp"

namespace leopard::crypto {

namespace {

// hash_many reads Digest rows as raw bytes: a Digest is exactly its 32-byte
// array, and vector<Digest> lays them out back to back.
static_assert(sizeof(Digest) == Digest::kSize);

constexpr std::uint8_t kLeafTag = 0x00;
constexpr std::uint8_t kInteriorTag = 0x01;

}  // namespace

Digest MerkleTree::hash_leaf(std::span<const std::uint8_t> data) {
  Sha256 ctx;
  ctx.update({&kLeafTag, 1});
  ctx.update(data);
  return Digest(ctx.finalize());
}

std::vector<Digest> MerkleTree::hash_leaves(std::span<const std::uint8_t> buf,
                                            std::size_t leaf_size) {
  util::expects(leaf_size > 0, "hash_leaves requires a non-zero leaf size");
  util::expects(buf.size() % leaf_size == 0, "buffer is not a whole number of leaves");
  const std::size_t count = buf.size() / leaf_size;
  // The shards sit back to back in the arena, so they are exactly the
  // equal-size rows the multi-buffer interface wants: leaves hash in groups
  // of Sha256::kMaxBatch through compress_wide (8 lanes per pass under AVX2,
  // 2 under SHA-NI/ARM CE) — and, for arena-scale inputs, row ranges
  // fan out across the worker pool — written straight into the Digest
  // storage (licensed by the sizeof static_assert above).
  std::vector<Digest> leaves(count);
  Sha256::hash_many({&kLeafTag, 1}, buf.data(), leaf_size, leaf_size, count,
                    reinterpret_cast<Sha256::DigestBytes*>(leaves.data()));
  return leaves;
}

Digest MerkleTree::hash_interior(const Digest& left, const Digest& right) {
  Sha256 ctx;
  ctx.update({&kInteriorTag, 1});
  ctx.update(left.bytes());
  ctx.update(right.bytes());
  return Digest(ctx.finalize());
}

MerkleTree::MerkleTree(std::vector<Digest> leaves) {
  util::expects(!leaves.empty(), "MerkleTree requires at least one leaf");
  levels_.push_back(std::move(leaves));
  while (levels_.back().size() > 1) {
    const auto& below = levels_.back();
    const std::size_t pairs = below.size() / 2;
    // Each interior node hashes 0x01 || left || right, and sibling digests
    // are adjacent 64-byte rows of the level below — the same n-lane
    // multi-buffer shape as the leaves.
    std::vector<Digest> above(pairs);
    above.reserve(pairs + below.size() % 2);
    Sha256::hash_many({&kInteriorTag, 1},
                      reinterpret_cast<const std::uint8_t*>(below.data()),
                      2 * Digest::kSize, 2 * Digest::kSize, pairs,
                      reinterpret_cast<Sha256::DigestBytes*>(above.data()));
    if (below.size() % 2 == 1) above.push_back(below.back());  // promote odd node
    levels_.push_back(std::move(above));
  }
}

std::vector<Digest> MerkleTree::proof(std::size_t index) const {
  util::expects(index < leaf_count(), "Merkle proof index out of range");
  std::vector<Digest> path;
  std::size_t i = index;
  for (std::size_t level = 0; level + 1 < levels_.size(); ++level) {
    const auto& nodes = levels_[level];
    const std::size_t sibling = (i % 2 == 0) ? i + 1 : i - 1;
    if (sibling < nodes.size()) path.push_back(nodes[sibling]);
    // else: promoted node, nothing to prove at this level
    i /= 2;
  }
  return path;
}

bool MerkleTree::verify(const Digest& root, const Digest& leaf, std::size_t index,
                        std::size_t leaf_count, std::span<const Digest> proof) {
  if (leaf_count == 0 || index >= leaf_count) return false;
  Digest node = leaf;
  std::size_t i = index;
  std::size_t width = leaf_count;
  std::size_t used = 0;
  while (width > 1) {
    const bool has_sibling = (i % 2 == 0) ? (i + 1 < width) : true;
    if (has_sibling) {
      if (used >= proof.size()) return false;
      const Digest& sibling = proof[used++];
      node = (i % 2 == 0) ? hash_interior(node, sibling) : hash_interior(sibling, node);
    }
    i /= 2;
    width = (width + 1) / 2;
  }
  return used == proof.size() && node == root;
}

}  // namespace leopard::crypto

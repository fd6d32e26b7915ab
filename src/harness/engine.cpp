#include "harness/engine.hpp"

namespace vlcsa::harness {

int resolve_threads(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

arith::BlockRng make_shard_rng(std::uint64_t seed, std::uint64_t shard_index) {
  // Same seed_seq words as always (make_stream_rng's expansion is
  // word-identical to std::seed_seq); BlockRng is sequence-identical to
  // std::mt19937_64, so every shard stream — and therefore every merged
  // counter — is unchanged from the std era.
  return arith::make_stream_rng(seed, shard_index);
}

}  // namespace vlcsa::harness

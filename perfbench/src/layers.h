// Per-layer replay for the traced run.
//
// The end-to-end passes call only the public API, so the time each layer
// spends inside a Session call is not visible from outside. The replay
// re-runs the work one archive did, block by block, through each layer's
// own functions — core tile gather/scatter, the sz tile codec, the Huffman
// coder, the lossless backend, the FPBK index — on the very inputs the
// pipeline gave them (the quantization codes and inner streams are parsed
// back out of the archive). Every call is a span; the totals below are the
// sums over the replayed archives, serial, on the calling thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace perfbench {

struct LayerTotals {
  std::size_t tiles = 0;
  std::size_t store_demotions = 0;
  double index_ms = 0.0;
  double gather_ms = 0.0;
  double scatter_ms = 0.0;
  double tile_compress_ms = 0.0;
  double tile_decompress_ms = 0.0;
  double huffman_build_ms = 0.0;
  double huffman_pack_ms = 0.0;
  double huffman_decode_ms = 0.0;
  double lossless_compress_ms = 0.0;
  double lossless_decompress_ms = 0.0;
  double used_symbols = 0.0;    ///< distinct codes with a Huffman code
  double alphabet = 0.0;        ///< quantization bins, summed over tiles
  double inner_bytes = 0.0;     ///< entropy-coded streams before lossless
  double lossless_bytes = 0.0;  ///< the same streams after lossless
  double payload_bytes = 0.0;   ///< lossless streams + stored raw blocks
  double archive_bytes = 0.0;
};

/// Replay every block of an sz-lorenzo FPBK `archive`. `coded` holds the
/// values its blocks were coded from: the field itself, or for a temporal
/// delta frame the composite the planner built.
void replay_archive(std::span<const float> coded,
                    std::span<const std::uint8_t> archive, LayerTotals& t);

}  // namespace perfbench

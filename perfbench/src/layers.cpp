#include "layers.h"

#include <stdexcept>
#include <vector>

#include "core/codec_registry.h"
#include "core/tile_layout.h"
#include "huffman/huffman.h"
#include "io/archive.h"
#include "io/bitstream.h"
#include "io/bytebuffer.h"
#include "lossless/backend.h"
#include "sz/codec.h"
#include "sz/stream_format.h"
#include "trace.h"

namespace perfbench {

using namespace fpsnr;

void replay_archive(std::span<const float> coded,
                    std::span<const std::uint8_t> archive, LayerTotals& t) {
  trace_new_op();
  Span replay("replay.archive");  // parent of every span below
  Span index_span("io.index");
  const io::BlockContainerView view = io::open_block_container(archive);
  t.index_ms += index_span.stop();

  std::vector<std::size_t> extents(view.header.extents.begin(),
                                   view.header.extents.end());
  const data::Dims dims(extents);
  if (dims.count() != coded.size())
    throw std::invalid_argument("replay: archive dims do not match values");
  const std::vector<std::size_t> requested(view.header.tile.begin(),
                                           view.header.tile.end());
  const core::TileLayout layout = core::make_layout(dims, requested);
  std::vector<float> decoded(coded.size());

  t.archive_bytes += static_cast<double>(archive.size());
  for (std::size_t b = 0; b < layout.block_count; ++b) {
    const core::TileRegion region = core::tile_region(layout, dims, b);
    const data::Dims tile_dims = core::region_dims(region, dims.rank());
    const std::span<const std::uint8_t> block = view.blocks[b];
    ++t.tiles;

    std::vector<float> tile(region.count);
    {
      Span s("core.gather");
      core::gather_tile<float>(coded, dims, region, tile);
      t.gather_ms += s.stop();
    }
    if (core::is_store_block_stream(block)) {
      ++t.store_demotions;
      t.payload_bytes += static_cast<double>(block.size());
      continue;
    }

    // The block's own header gives the exact parameters it was coded with.
    io::ByteReader reader(block);
    const sz::StreamHeader h = sz::read_header(reader);
    if (h.predictor != sz::Predictor::Lorenzo)
      throw std::invalid_argument("replay: only Lorenzo blocks are replayed");
    const std::span<const std::uint8_t> payload = reader.get_blob_view();
    sz::Params params;
    params.mode = sz::ErrorBoundMode::Absolute;
    params.bound = h.eb_abs;
    params.quantization_bins = h.quant_bins;
    params.backend = lossless::backend_method(payload);
    {
      Span s("sz.tile_compress");
      const auto bytes = sz::compress<float>(tile, tile_dims, params);
      t.tile_compress_ms += s.stop();
    }
    {
      Span s("sz.tile_decompress");
      const auto d = sz::decompress<float>(block);
      t.tile_decompress_ms += s.stop();
      Span g("core.scatter");
      core::scatter_tile<float>(d.values, dims, region, decoded);
      t.scatter_ms += g.stop();
    }

    // Inner stream: varint outlier count | outliers | Huffman table | bits.
    std::vector<std::uint8_t> inner;
    {
      Span s("lossless.decompress");
      inner = lossless::backend_decompress(payload);
      t.lossless_decompress_ms += s.stop();
    }
    io::ByteReader in(inner);
    const std::uint64_t outliers = in.get_varint();
    (void)in.get_bytes(outliers * sizeof(float));
    std::vector<std::uint32_t> codes;
    {
      Span s("huffman.decode");
      const auto decoder = huffman::Decoder::read_table(in);
      io::BitReader bits(in.get_blob_view());
      codes = decoder.decode(bits, region.count);
      t.huffman_decode_ms += s.stop();
    }
    {
      Span s("huffman.build");
      const auto encoder = huffman::Encoder::from_symbols(codes, h.quant_bins);
      t.huffman_build_ms += s.stop();
      for (std::uint8_t len : encoder.lengths()) t.used_symbols += len != 0;
      t.alphabet += h.quant_bins;
      Span p("huffman.pack");
      io::BitWriter bits;
      encoder.encode(codes, bits);
      const auto packed = bits.take();
      t.huffman_pack_ms += p.stop();
    }
    {
      Span s("lossless.compress");
      const auto out = lossless::backend_compress(inner, params.backend);
      t.lossless_compress_ms += s.stop();
    }
    t.inner_bytes += static_cast<double>(inner.size());
    t.lossless_bytes += static_cast<double>(payload.size());
    t.payload_bytes += static_cast<double>(payload.size());
  }
}

}  // namespace perfbench

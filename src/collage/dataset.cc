#include "collage/dataset.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "util/logging.hh"
#include "util/rng.hh"

namespace ap::collage {

namespace {

/**
 * Generate one image's histogram: three independent channel
 * distributions, each a mixture of a few peaks, scaled so every
 * channel's bins sum to kBlockPixels. Matching the scale of block
 * histograms keeps queries and dataset records directly comparable.
 *
 * A peak's term depends only on the distance k = |b - center| (the
 * arguments for b = center - k and center + k are bitwise equal), so
 * each distance takes one exp. Terms with d^2 > 100 are skipped: amp
 * < 1.2, so such a term is below 1.2 * exp(-50) ~ 2.3e-22, and every
 * weight is at least 0.01, half an ulp of which is 2^-60 ~ 8.7e-19.
 * Adding the term could not change the weight, so every sum is the
 * one a full 256-bin pass would give.
 */
void
generateHistogram(SplitMix64& rng, float* hist)
{
    for (int c = 0; c < 3; ++c) {
        float* h = hist + c * 256;
        double total = 0;
        int peaks = 2 + static_cast<int>(rng.nextBounded(3));
        double weight[256];
        std::fill(weight, weight + 256, 0.01);
        for (int p = 0; p < peaks; ++p) {
            int center = static_cast<int>(rng.nextBounded(256));
            double sigma = 4 + rng.nextFloat() * 24;
            double amp = 0.2 + rng.nextFloat();
            int reach = std::max(center, 255 - center);
            for (int k = 0; k <= reach; ++k) {
                double d = k / sigma;
                if (d * d > 100)
                    break;
                double term = amp * std::exp(-0.5 * d * d);
                if (center + k < 256)
                    weight[center + k] += term;
                if (k > 0 && center - k >= 0)
                    weight[center - k] += term;
            }
        }
        for (int b = 0; b < 256; ++b)
            total += weight[b];
        for (int b = 0; b < 256; ++b)
            h[b] = static_cast<float>(weight[b] / total * kBlockPixels);
    }
}

/**
 * One channel of a histogram as a distribution to sample levels from:
 * its running sums, and a guide table (Chen & Asau 1974) holding, for
 * each integer target j, the first bin whose running sum reaches j.
 */
struct LevelSampler
{
    /** Running sums of the channel's bins; +inf past bin 255. */
    float cdf[257];

    /** guide[j]: the first bin with cdf >= j (256 if none). */
    uint16_t guide[kBlockPixels];

    explicit LevelSampler(const float* channel_hist)
    {
        float acc = 0;
        for (int b = 0; b < 256; ++b) {
            acc += channel_hist[b];
            cdf[b] = acc;
        }
        cdf[256] = std::numeric_limits<float>::infinity();
        int b = 0;
        for (int j = 0; j < kBlockPixels; ++j) {
            while (b < 256 && cdf[b] < static_cast<float>(j))
                ++b;
            guide[j] = static_cast<uint16_t>(b);
        }
    }

    /**
     * The first bin whose running sum reaches a uniform target in
     * [0, kBlockPixels); 255 when none does. The sums never decrease,
     * so no bin before guide[floor(target)] can reach the target.
     */
    int
    sample(SplitMix64& rng) const
    {
        float target = rng.nextFloat() * kBlockPixels;
        int b = guide[static_cast<int>(target)];
        while (cdf[b] < target)
            ++b;
        return std::min(b, 255);
    }
};

/** Fill one block pattern with pixels sampled from histogram @p h. */
void
samplePattern(SplitMix64& rng, const float* h, uint32_t* pat)
{
    const LevelSampler red(h), green(h + 256), blue(h + 512);
    for (int i = 0; i < kBlockPixels; ++i) {
        int r = red.sample(rng);
        int g = green.sample(rng);
        int b = blue.sample(rng);
        pat[i] = (static_cast<uint32_t>(r) << 16) |
                 (static_cast<uint32_t>(g) << 8) | static_cast<uint32_t>(b);
    }
}

} // namespace

Dataset
Dataset::build(hostio::BackingStore& bs, const DatasetParams& p)
{
    AP_ASSERT(p.recordSize >= kBins * sizeof(float),
              "record too small for a histogram");
    Dataset ds;
    ds.params = p;
    uint32_t nb = p.numBuckets ? p.numBuckets
                               : std::max(1u, p.numImages / 8);
    ds.lsh = Lsh(p.lshTables, p.lshProjections, p.lshWidth, nb, p.seed);

    SplitMix64 rng(p.seed * 0x9e3779b9ULL + 1);
    ds.hists.resize(static_cast<size_t>(p.numImages) * kBins);
    for (uint32_t i = 0; i < p.numImages; ++i)
        generateHistogram(rng, ds.hists.data() +
                                   static_cast<size_t>(i) * kBins);

    // Histogram record file (page-padded or packed).
    ds.histFile = bs.create("collage_hist.bin",
                            static_cast<size_t>(p.numImages) *
                                p.recordSize);
    for (uint32_t i = 0; i < p.numImages; ++i)
        bs.pwrite(ds.histFile, ds.histogram(i), kBins * sizeof(float),
                  ds.recordOffset(i));

    // LSH bucket index.
    ds.buckets.assign(static_cast<size_t>(p.lshTables) * nb, {});
    for (uint32_t i = 0; i < p.numImages; ++i)
        for (int t = 0; t < p.lshTables; ++t)
            ds.buckets[static_cast<size_t>(t) * nb +
                       ds.lsh.bucketOf(ds.histogram(i), t)]
                .push_back(i);
    return ds;
}

CollageInput
makeInput(const Dataset& ds, const InputParams& p)
{
    AP_ASSERT(p.reuse >= 1.0, "reuse must be at least 1");
    AP_ASSERT(ds.params.numImages > 0, "no dataset images to sample");
    CollageInput in;
    in.numBlocks = p.numBlocks;
    in.reuse = p.reuse;
    in.pixels.resize(static_cast<size_t>(p.numBlocks) * kBlockPixels);

    SplitMix64 rng(p.seed * 77 + 13);
    uint32_t distinct = std::max<uint32_t>(
        1, static_cast<uint32_t>(p.numBlocks / p.reuse));

    // Real images contain repeated content: blocks with identical
    // pixels recur across the input (sky, walls, textures), and it is
    // exactly this repetition that produces the data reuse the paper
    // annotates in Fig. 9. We synthesize it structurally: `distinct`
    // block patterns are sampled from dataset images, and every input
    // block copies one pattern, giving an average reuse of
    // numBlocks/distinct.
    std::vector<uint32_t> patterns(static_cast<size_t>(distinct) *
                                   kBlockPixels);
    for (uint32_t d = 0; d < distinct; ++d) {
        uint32_t img =
            static_cast<uint32_t>(rng.nextBounded(ds.params.numImages));
        samplePattern(rng, ds.histogram(img),
                      patterns.data() + static_cast<size_t>(d) * kBlockPixels);
    }
    for (uint32_t blk = 0; blk < p.numBlocks; ++blk) {
        size_t d = rng.nextBounded(distinct);
        std::memcpy(in.pixels.data() +
                        static_cast<size_t>(blk) * kBlockPixels,
                    patterns.data() + d * kBlockPixels, kBlockPixels * 4);
    }
    return in;
}

void
blockHistogram(const uint32_t* pixels, float* hist)
{
    std::memset(hist, 0, kBins * sizeof(float));
    for (int i = 0; i < kBlockPixels; ++i) {
        uint32_t px = pixels[i];
        hist[(px >> 16) & 0xff] += 1.0f;
        hist[256 + ((px >> 8) & 0xff)] += 1.0f;
        hist[512 + (px & 0xff)] += 1.0f;
    }
}

float
histDistance(const float* a, const float* b)
{
    float d = 0;
    for (int i = 0; i < kBins; ++i) {
        float x = a[i] - b[i];
        d += x * x;
    }
    return d;
}

} // namespace ap::collage

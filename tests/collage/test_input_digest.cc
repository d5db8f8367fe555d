/**
 * @file
 * The collage workload's host-generated inputs are byte-stable.
 *
 * InputDigest pins an FNV-1a digest of every byte the generators
 * produce at apbench serve's parameters and at its smoke size: the
 * dataset's histograms, bucket index and histogram file (both record
 * sizes), the query pixels, and serving::makeWorkload's reference
 * winners and scan file. Serve's inputs do not depend on apbench's
 * --seed, so this digest is the held-out check that a faster generator
 * still produces the same inputs.
 *
 * InputOracle keeps the straightforward generators as reference code:
 * a linear scan of the running sum per sampled level, every Gaussian
 * term over all 256 bins, and one dot product per LSH projection. It
 * checks Dataset::build and makeInput against them byte for byte over
 * many seeds, makeInput over hand-built edge-case histograms, and
 * Lsh::bucketOf over histograms whose dot products depend on the
 * order of their sums.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "collage/dataset.hh"
#include "serving/serving.hh"
#include "util/rng.hh"

namespace ap::collage {
namespace {

// ---- digest ------------------------------------------------------------

/** 64-bit FNV-1a over a byte stream. */
struct Fnv1a
{
    uint64_t h = 14695981039346656037ULL;

    void
    bytes(const void* p, size_t n)
    {
        const auto* b = static_cast<const uint8_t*>(p);
        for (size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 1099511628211ULL;
    }

    template <typename T>
    void
    vec(const std::vector<T>& v)
    {
        uint64_t n = v.size();
        bytes(&n, sizeof n);
        bytes(v.data(), v.size() * sizeof(T));
    }
};

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

template <typename T>
uint64_t
digestOf(const std::vector<T>& v)
{
    Fnv1a f;
    f.vec(v);
    return f.h;
}

uint64_t
digestOf(const std::vector<std::vector<uint32_t>>& buckets)
{
    Fnv1a f;
    for (const auto& b : buckets)
        f.vec(b);
    return f.h;
}

uint64_t
fileDigest(const hostio::BackingStore& bs, hostio::FileId file)
{
    Fnv1a f;
    size_t n = bs.size(file);
    f.bytes(&n, sizeof n);
    f.bytes(bs.data(file, 0, n), n);
    return f.h;
}

/** Digests of every generated input of one serve configuration. */
struct Golden
{
    uint64_t hists;
    uint64_t buckets;
    uint64_t histFile4096;
    uint64_t histFile3072;
    uint64_t pixels;
    uint64_t expected;
    uint64_t scanFile;
};

/**
 * Build serve's inputs as apbench does (dataset seed 42, query seed 7)
 * and compare each digest with @p g. A mismatch prints the new value.
 */
void
checkServeInputs(uint32_t images, uint32_t buckets, uint32_t queries,
                 const Golden& g)
{
    DatasetParams dp;
    dp.numImages = images;
    dp.numBuckets = buckets;
    dp.seed = 42;

    hostio::BackingStore bs;
    Dataset ds = Dataset::build(bs, dp);
    serving::ServingWorkload wl = serving::makeWorkload(bs, ds, queries, 7);
    EXPECT_EQ(hex(digestOf(ds.hists)), hex(g.hists));
    EXPECT_EQ(hex(digestOf(ds.buckets)), hex(g.buckets));
    EXPECT_EQ(hex(fileDigest(bs, ds.histFile)), hex(g.histFile4096));
    EXPECT_EQ(hex(digestOf(wl.queries.pixels)), hex(g.pixels));
    EXPECT_EQ(hex(digestOf(wl.expected)), hex(g.expected));
    EXPECT_EQ(hex(fileDigest(bs, wl.scanFile)), hex(g.scanFile));

    // The packed layout: the same histograms, 3072-byte records.
    dp.recordSize = 3072;
    hostio::BackingStore packed_bs;
    Dataset packed = Dataset::build(packed_bs, dp);
    EXPECT_EQ(hex(digestOf(packed.hists)), hex(g.hists));
    EXPECT_EQ(hex(digestOf(packed.buckets)), hex(g.buckets));
    EXPECT_EQ(hex(fileDigest(packed_bs, packed.histFile)),
              hex(g.histFile3072));
}

TEST(InputDigest, ServeInputsMatchGolden)
{
    // apbench serve: 2,048 images, 256 buckets, 512 query blocks.
    checkServeInputs(2048, 256, 512,
                     {0x4490125482367bfdULL, 0x8fd16a81973cead5ULL,
                      0xb5cabe6f254e2705ULL, 0x893b1d6abde86de5ULL,
                      0x2cee62963f3c7023ULL, 0x74c96d4353726f50ULL,
                      0x80724408161a6b85ULL});
}

TEST(InputDigest, SmokeInputsMatchGolden)
{
    // apbench serve --smoke: 512 images, 128 buckets, 128 query blocks.
    checkServeInputs(512, 128, 128,
                     {0xeb4b7746866c982dULL, 0xe00c38909997684bULL,
                      0x5a7db7d823a45573ULL, 0x3ef493b514dfa32bULL,
                      0x92e0ab32d0a122b9ULL, 0x29a649d7d32007c6ULL,
                      0x80724408161a6b85ULL});
}

// ---- reference generators ----------------------------------------------

/** One image's histogram, summing every peak's term over all 256 bins. */
void
refHistogram(SplitMix64& rng, float* hist)
{
    for (int c = 0; c < 3; ++c) {
        float* h = hist + c * 256;
        double total = 0;
        int peaks = 2 + static_cast<int>(rng.nextBounded(3));
        std::vector<double> weight(256, 0.01);
        for (int p = 0; p < peaks; ++p) {
            int center = static_cast<int>(rng.nextBounded(256));
            double sigma = 4 + rng.nextFloat() * 24;
            double amp = 0.2 + rng.nextFloat();
            for (int b = 0; b < 256; ++b) {
                double d = (b - center) / sigma;
                weight[b] += amp * std::exp(-0.5 * d * d);
            }
        }
        for (int b = 0; b < 256; ++b)
            total += weight[b];
        for (int b = 0; b < 256; ++b)
            h[b] = static_cast<float>(weight[b] / total * kBlockPixels);
    }
}

/** The first bin whose running sum reaches the target; 255 past the end. */
int
refSampleLevel(SplitMix64& rng, const float* channel_hist)
{
    float target = rng.nextFloat() * kBlockPixels;
    float acc = 0;
    for (int b = 0; b < 256; ++b) {
        acc += channel_hist[b];
        if (acc >= target)
            return b;
    }
    return 255;
}

/** Everything Dataset::build produces, built by the reference code. */
struct RefDataset
{
    std::vector<float> hists;
    std::vector<std::vector<uint32_t>> buckets;
    std::vector<uint8_t> file;
};

/** Lsh's projections and biases, drawn as Lsh draws them. */
struct RefLsh
{
    RefLsh(int tables, int projections, float w, uint32_t num_buckets,
           uint64_t seed)
        : nproj(projections), width(w), buckets(num_buckets),
          proj(static_cast<size_t>(tables) * projections * kBins),
          bias(static_cast<size_t>(tables) * projections)
    {
        SplitMix64 rng(seed);
        for (auto& v : proj)
            v = rng.nextGaussian();
        for (auto& b : bias)
            b = rng.nextFloat() * width;
    }

    /** One dot product per projection, summed in bin order. */
    uint32_t
    bucketOf(const float* hist, int t) const
    {
        uint64_t h = 1469598103934665603ULL;
        for (int j = 0; j < nproj; ++j) {
            size_t k = static_cast<size_t>(t) * nproj + j;
            const float* a = proj.data() + k * kBins;
            float dot = 0;
            for (int b = 0; b < kBins; ++b)
                dot += hist[b] * a[b];
            auto key =
                static_cast<int64_t>(std::floor((dot + bias[k]) / width));
            h = (h ^ static_cast<uint64_t>(key)) * 1099511628211ULL;
        }
        return static_cast<uint32_t>(h % buckets);
    }

    int nproj;
    float width;
    uint32_t buckets;
    std::vector<float> proj;
    std::vector<float> bias;
};

RefDataset
refBuild(const DatasetParams& p)
{
    uint32_t nb =
        p.numBuckets ? p.numBuckets : std::max(1u, p.numImages / 8);
    RefLsh lsh(p.lshTables, p.lshProjections, p.lshWidth, nb, p.seed);

    RefDataset r;
    SplitMix64 rng(p.seed * 0x9e3779b9ULL + 1);
    r.hists.resize(static_cast<size_t>(p.numImages) * kBins);
    for (uint32_t i = 0; i < p.numImages; ++i)
        refHistogram(rng, r.hists.data() + static_cast<size_t>(i) * kBins);

    r.file.assign(static_cast<size_t>(p.numImages) * p.recordSize, 0);
    for (uint32_t i = 0; i < p.numImages; ++i)
        std::memcpy(r.file.data() + static_cast<size_t>(i) * p.recordSize,
                    r.hists.data() + static_cast<size_t>(i) * kBins,
                    kBins * sizeof(float));

    r.buckets.assign(static_cast<size_t>(p.lshTables) * nb, {});
    for (uint32_t i = 0; i < p.numImages; ++i) {
        const float* h = r.hists.data() + static_cast<size_t>(i) * kBins;
        for (int t = 0; t < p.lshTables; ++t)
            r.buckets[static_cast<size_t>(t) * nb + lsh.bucketOf(h, t)]
                .push_back(i);
    }
    return r;
}

/** makeInput's pixels, sampled by the linear-scan reference. */
std::vector<uint32_t>
refPixels(const Dataset& ds, const InputParams& p)
{
    std::vector<uint32_t> px(static_cast<size_t>(p.numBlocks) *
                             kBlockPixels);
    SplitMix64 rng(p.seed * 77 + 13);
    uint32_t distinct = std::max<uint32_t>(
        1, static_cast<uint32_t>(p.numBlocks / p.reuse));
    std::vector<std::vector<uint32_t>> patterns(distinct);
    for (auto& pat : patterns) {
        const float* h = ds.histogram(
            static_cast<uint32_t>(rng.nextBounded(ds.params.numImages)));
        pat.resize(kBlockPixels);
        for (uint32_t& v : pat) {
            int r = refSampleLevel(rng, h);
            int g = refSampleLevel(rng, h + 256);
            int b = refSampleLevel(rng, h + 512);
            v = (static_cast<uint32_t>(r) << 16) |
                (static_cast<uint32_t>(g) << 8) | static_cast<uint32_t>(b);
        }
    }
    for (uint32_t blk = 0; blk < p.numBlocks; ++blk) {
        const auto& pat = patterns[rng.nextBounded(distinct)];
        std::memcpy(px.data() + static_cast<size_t>(blk) * kBlockPixels,
                    pat.data(), kBlockPixels * 4);
    }
    return px;
}

// ---- oracle checks -----------------------------------------------------

/** Small datasets that vary every generation parameter. */
std::vector<DatasetParams>
oracleDatasets()
{
    std::vector<DatasetParams> v;
    for (uint64_t seed : {1ULL, 42ULL, 977ULL, 65537ULL, 0xdeadbeefULL}) {
        DatasetParams p;
        p.numImages = 192;
        p.seed = seed;
        v.push_back(p);
    }
    v[1].recordSize = 3072;
    v[2].numBuckets = 17;
    v[3].lshProjections = 6; // a projection count that is not a multiple of 4
    v[3].lshTables = 3;
    v[4].lshProjections = 1;
    v[4].lshWidth = 16.0f;
    return v;
}

TEST(InputOracle, DatasetMatchesReferenceGenerators)
{
    for (const DatasetParams& p : oracleDatasets()) {
        SCOPED_TRACE("dataset seed " + std::to_string(p.seed));
        hostio::BackingStore bs;
        Dataset ds = Dataset::build(bs, p);
        RefDataset ref = refBuild(p);
        ASSERT_EQ(ds.hists.size(), ref.hists.size());
        EXPECT_EQ(std::memcmp(ds.hists.data(), ref.hists.data(),
                              ref.hists.size() * sizeof(float)),
                  0);
        EXPECT_EQ(ds.buckets, ref.buckets);
        ASSERT_EQ(bs.size(ds.histFile), ref.file.size());
        EXPECT_EQ(std::memcmp(bs.data(ds.histFile, 0, ref.file.size()),
                              ref.file.data(), ref.file.size()),
                  0);
    }
}

TEST(InputOracle, LshSumsEachProjectionInBinOrder)
{
    // Histogram entries spread over 2^40 make every dot product depend
    // on the order of its sum, so a bucket summed in another order
    // differs from the reference. On generated histograms another order
    // almost never moves a key across a floor boundary, so the dataset
    // checks cannot see it.
    for (int nproj : {1, 3, 4, 6, 9}) {
        SCOPED_TRACE("projections " + std::to_string(nproj));
        Lsh lsh(2, nproj, 64.0f, 1021, 100 + nproj);
        RefLsh ref(2, nproj, 64.0f, 1021, 100 + nproj);
        SplitMix64 rng(nproj);
        std::vector<float> h(kBins);
        for (int iter = 0; iter < 50; ++iter) {
            for (float& v : h)
                v = std::ldexp(rng.nextFloat(),
                               static_cast<int>(rng.nextBounded(40)));
            for (int t = 0; t < 2; ++t)
                ASSERT_EQ(lsh.bucketOf(h.data(), t),
                          ref.bucketOf(h.data(), t));
        }
    }
}

TEST(InputOracle, MakeInputMatchesLinearScan)
{
    for (const DatasetParams& dp : oracleDatasets()) {
        hostio::BackingStore bs;
        Dataset ds = Dataset::build(bs, dp);
        for (uint64_t seed : {7ULL, 8ULL, 123456789ULL}) {
            for (double reuse : {1.0, 4.0, 32.0}) {
                SCOPED_TRACE("dataset seed " + std::to_string(dp.seed) +
                             ", input seed " + std::to_string(seed) +
                             ", reuse " + std::to_string(reuse));
                InputParams ip;
                ip.numBlocks = 64;
                ip.reuse = reuse;
                ip.seed = seed;
                EXPECT_EQ(makeInput(ds, ip).pixels, refPixels(ds, ip));
            }
        }
    }
}

TEST(InputOracle, MakeInputMatchesLinearScanOnEdgeHistograms)
{
    // Channels the generator never makes: sums well below and above
    // kBlockPixels (so targets run past the end), all mass in one bin,
    // long runs of empty bins, and tiny fractional steps.
    Dataset ds;
    ds.params.numImages = 6;
    ds.hists.assign(static_cast<size_t>(ds.params.numImages) * kBins, 0);
    SplitMix64 rng(99);
    for (int c = 0; c < 3; ++c) {
        float* img[6];
        for (uint32_t i = 0; i < 6; ++i)
            img[i] = ds.hists.data() + static_cast<size_t>(i) * kBins +
                     c * 256;
        for (int b = 0; b < 256; ++b) {
            img[0][b] = 1.0f;                               // sums to 256
            img[2][b] = b % 7 == 0 ? 0.0f : 0.001f * (b % 5);
            img[3][b] = rng.nextFloat() * 8.0f;             // sums near 1024
            img[4][b] = 9.0f;                               // sums to 2304
            img[5][b] = b < 200 ? 0.0f : 1024.0f / 56.0f;   // empty prefix
        }
        img[1][17 + c] = static_cast<float>(kBlockPixels); // one bin
        img[2][255] = 1000.0f;
    }
    for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        for (double reuse : {1.0, 4.0, 32.0}) {
            InputParams ip;
            ip.numBlocks = 96;
            ip.reuse = reuse;
            ip.seed = seed;
            EXPECT_EQ(makeInput(ds, ip).pixels, refPixels(ds, ip))
                << "input seed " << seed << ", reuse " << reuse;
        }
    }
}

} // namespace
} // namespace ap::collage

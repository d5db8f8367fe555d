#include "collage/lsh.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/rng.hh"

namespace ap::collage {

Lsh::Lsh(int tables, int projections, float width, uint32_t num_buckets,
         uint64_t seed)
    : nTables(tables), nProj(projections), quantWidth(width),
      nBuckets(num_buckets)
{
    AP_ASSERT(tables > 0 && projections > 0 && num_buckets > 0,
              "degenerate LSH configuration");
    SplitMix64 rng(seed);
    int groups = (projections + 3) / 4;
    proj.resize(static_cast<size_t>(tables) * groups * kBins * 4);
    bias.resize(static_cast<size_t>(tables) * projections);
    for (int t = 0; t < tables; ++t)
        for (int j = 0; j < projections; ++j)
            for (int i = 0; i < kBins; ++i)
                proj[((static_cast<size_t>(t) * groups + j / 4) * kBins +
                      i) * 4 + j % 4] = rng.nextGaussian();
    for (auto& b : bias)
        b = rng.nextFloat() * quantWidth;
}

uint32_t
Lsh::bucketOf(const float* hist, int t) const
{
    // One pass over the histogram serves a group of four projections,
    // each with its own accumulator summed in bin order, so every dot
    // product is the one a pass per projection would give.
    int groups = (nProj + 3) / 4;
    const float* a = proj.data() + static_cast<size_t>(t) * groups * kBins * 4;
    uint64_t h = 1469598103934665603ULL; // FNV offset basis
    for (int j0 = 0; j0 < nProj; j0 += 4, a += kBins * 4) {
        float dot[4] = {0, 0, 0, 0};
        for (int i = 0; i < kBins; ++i)
            for (int j = 0; j < 4; ++j)
                dot[j] += hist[i] * a[i * 4 + j];
        for (int j = 0; j < std::min(4, nProj - j0); ++j) {
            int64_t key = static_cast<int64_t>(std::floor(
                (dot[j] + bias[static_cast<size_t>(t) * nProj + j0 + j]) /
                quantWidth));
            h = (h ^ static_cast<uint64_t>(key)) * 1099511628211ULL;
        }
    }
    return static_cast<uint32_t>(h % nBuckets);
}

} // namespace ap::collage

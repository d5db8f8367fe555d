/**
 * @file
 * Locality-Sensitive Hashing over color histograms (paper section
 * VI-E): p-stable LSH [Datar et al.] with L hash tables of K
 * projections each. Dataset images are placed in buckets indexed by
 * the LSH keys of their histograms; a query block searches only the
 * buckets its own keys select.
 */

#ifndef AP_COLLAGE_LSH_HH
#define AP_COLLAGE_LSH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ap::collage {

/** Histogram bins: 3 channels x 256 levels of a 24-bit RGB pixel. */
constexpr int kBins = 768;

/** Pixels per 32x32 input block. */
constexpr int kBlockPixels = 1024;

/** p-stable LSH parameters and projection vectors. */
class Lsh
{
  public:
    /**
     * @param tables      number of hash tables (L)
     * @param projections projections per table (K)
     * @param width       quantization width (w of Datar et al.)
     * @param num_buckets buckets per table
     * @param seed        deterministic projection seed
     */
    Lsh(int tables, int projections, float width, uint32_t num_buckets,
        uint64_t seed);

    /** Number of hash tables. */
    int tables() const { return nTables; }

    /** Projections per table. */
    int projections() const { return nProj; }

    /** Buckets per table. */
    uint32_t numBuckets() const { return nBuckets; }

    /**
     * Bucket of histogram @p hist (kBins floats) in table @p t:
     * k_j = floor((hist . a_j + b_j) / w), combined with a polynomial
     * hash, modulo the bucket count.
     */
    uint32_t bucketOf(const float* hist, int t) const;

    /** Total flops of one bucketOf evaluation (for cost accounting). */
    double
    flopsPerQueryTable() const
    {
        return 2.0 * nProj * kBins;
    }

  private:
    int nTables;
    int nProj;
    float quantWidth;
    uint32_t nBuckets;

    /**
     * The projection vectors, four to a group and interleaved by bin:
     * element i of projection j of table t sits at
     * ((t * groups + j / 4) * kBins + i) * 4 + j % 4, with groups =
     * ceil(K / 4). A group short of four is padded with zeros.
     */
    std::vector<float> proj;
    std::vector<float> bias;
};

} // namespace ap::collage

#endif // AP_COLLAGE_LSH_HH

/**
 * @file
 * Synthetic tiny-image dataset and input generation for the collage
 * workload (paper section VI-E). The paper uses 10M images of the
 * 80-million-tiny-images dataset with pre-computed histograms padded to
 * 4 KB (38.14 GB total); this reproduction generates a scaled-down
 * deterministic equivalent: per-image color histograms, an LSH bucket
 * index, and input "images" whose blocks sample pixels from chosen
 * dataset images (the choice spread controls the data-reuse knob shown
 * on Fig. 9's right axis).
 *
 * Generation is byte-stable: the same parameters give the same
 * histograms, bucket index, histogram file and input pixels on every
 * build, so a faster generator must produce the bytes the
 * straightforward one does. tests/collage/test_input_digest.cc pins a
 * digest of apbench serve's inputs and checks both generators against
 * reference code that sums every Gaussian term and scans every running
 * sum. The build is ISO C++ with no -march, so no product and sum are
 * contracted into an FMA.
 */

#ifndef AP_COLLAGE_DATASET_HH
#define AP_COLLAGE_DATASET_HH

#include <string>

#include "collage/lsh.hh"
#include "hostio/backing_store.hh"

namespace ap::collage {

/** Dataset generation parameters. */
struct DatasetParams
{
    /** Number of dataset images. */
    uint32_t numImages = 4096;

    /** LSH hash tables (L). */
    int lshTables = 2;

    /** LSH projections per table (K). */
    int lshProjections = 4;

    /** LSH quantization width. */
    float lshWidth = 64.0f;

    /** Buckets per table; 0 = numImages / 8. */
    uint32_t numBuckets = 0;

    /**
     * Histogram record size in the dataset file: 4096 (page-padded, the
     * paper's main configuration) or 3072 (packed/unaligned variant of
     * section VI-E).
     */
    uint32_t recordSize = 4096;

    /** Deterministic seed. */
    uint64_t seed = 42;
};

/** The generated dataset: host-side copies plus backing-store files. */
class Dataset
{
  public:
    /**
     * Generate the dataset and write its files into @p bs:
     * "collage_hist.bin" (histogram records) and the in-memory bucket
     * index.
     */
    static Dataset build(hostio::BackingStore& bs, const DatasetParams& p);

    /** Histogram of image @p img (kBins floats, scaled to 1024/channel). */
    const float*
    histogram(uint32_t img) const
    {
        return hists.data() + static_cast<size_t>(img) * kBins;
    }

    /** Byte offset of image @p img's record in the histogram file. */
    uint64_t
    recordOffset(uint32_t img) const
    {
        return static_cast<uint64_t>(img) * params.recordSize;
    }

    /** Candidates of bucket @p b of table @p t. */
    const std::vector<uint32_t>&
    bucket(int t, uint32_t b) const
    {
        return buckets[static_cast<size_t>(t) * lsh.numBuckets() + b];
    }

    DatasetParams params;
    Lsh lsh{1, 1, 1.0f, 1, 0};
    hostio::FileId histFile = -1;

    /** Host copy of all histograms (CPU baseline + input generation). */
    std::vector<float> hists;

    /** Host copy of the bucket index [table][bucket] -> image ids. */
    std::vector<std::vector<uint32_t>> buckets;
};

/** Input generation parameters. */
struct InputParams
{
    /** Blocks in the input image (each 32x32 pixels). */
    uint32_t numBlocks = 256;

    /**
     * Target data reuse: expected number of blocks drawn from the same
     * dataset image (Fig. 9 annotates each input with its reuse).
     */
    double reuse = 4.0;

    uint64_t seed = 7;
};

/** One input image, as pixel blocks. */
struct CollageInput
{
    uint32_t numBlocks = 0;
    double reuse = 0;

    /** Packed 0x00RRGGBB pixels, numBlocks x kBlockPixels. */
    std::vector<uint32_t> pixels;
};

/**
 * Generate an input whose blocks sample pixels from randomly chosen
 * dataset images; ~numBlocks/reuse distinct images are used.
 */
CollageInput makeInput(const Dataset& ds, const InputParams& p);

/** Histogram (bin counts as floats) of one block of packed pixels. */
void blockHistogram(const uint32_t* pixels, float* hist);

/** Squared Euclidean distance between two kBins histograms. */
float histDistance(const float* a, const float* b);

} // namespace ap::collage

#endif // AP_COLLAGE_DATASET_HH

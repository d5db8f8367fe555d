/**
 * @file
 * The ActivePointers runtime: configuration (implementation mode,
 * pointer kind, TLB policy, permission checks) and the glue between
 * apointers, the per-threadblock TLB, and the GPUfs page cache.
 */

#ifndef AP_CORE_RUNTIME_HH
#define AP_CORE_RUNTIME_HH

#include <memory>

#include "core/access_mode.hh"
#include "core/tlb.hh"
#include "core/translation.hh"
#include "gpufs/gpufs.hh"

namespace ap::core {

// A short translation keeps the in-page offset in its low field.
static_assert(gpufs::kPageBytes == uint64_t{1} << kShortOffWidth,
              "short apointer layout assumes the page size");

/** Translation-layer policy knobs. */
struct GvmConfig
{
    /** Which apointer implementation to model (Table I variants). */
    AccessMode mode = AccessMode::Prefetch;

    /** Translation-field layout. */
    AptrKind kind = AptrKind::Long;

    /** Use the per-threadblock software TLB (the paper's best results
     * are TLB-less, section VI-C). */
    bool useTlb = false;

    /** TLB entries per threadblock when useTlb is set. */
    uint32_t tlbEntries = 32;

    /** Verify page access permissions on every access (the "rw"
     * variants of Tables I and II; disabled by default as in the
     * paper's main experiments). */
    bool permChecks = false;
};

/**
 * Runtime shared by all apointers of a simulation. Host-constructed;
 * device code reaches it through the apointers themselves.
 */
class GvmRuntime
{
  public:
    /**
     * @param fs  the GPUfs instance backing avirtual memory
     * @param cfg policy knobs
     */
    GvmRuntime(gpufs::GpuFs& fs, const GvmConfig& cfg = GvmConfig{})
        : fs_(&fs), cfg_(cfg), costs_(costsFor(cfg.mode, cfg.kind))
    {
    }

    /** The GPUfs layer. */
    gpufs::GpuFs& fs() { return *fs_; }

    /** Policy in force. */
    const GvmConfig& config() const { return cfg_; }

    /** Instruction-cost table for the configured mode/kind. */
    const AptrCosts& costs() const { return costs_; }

    /**
     * The calling warp's threadblock TLB; created lazily on first use.
     * @return nullptr when the TLB is disabled
     */
    SoftTlb*
    tlbFor(sim::Warp& w)
    {
        if (!cfg_.useTlb)
            return nullptr;
        sim::ThreadBlock& tb = w.block();
        if (!tb.tlbSlot)
            tb.tlbSlot = std::make_shared<SoftTlb>(
                tb, cfg_.tlbEntries, cfg_.kind,
                w.costModel().scratchLatency, fs_->device());
        return static_cast<SoftTlb*>(tb.tlbSlot.get());
    }

    /**
     * Host-side tenant teardown: the full shutdown sequence for one
     * address space, run after the tenant's kernel has finished. Its
     * TLBs died with their threadblocks; a translation a warp leaked
     * through one still holds its page-table references.
     *
     *  1. scrub the tenant's page-cache footprint (Busy if pages are
     *     still referenced or loading),
     *  2. release the ASID in the registry (Busy if frames remain).
     *
     * @return Ok, or the first failing step's status; nothing is torn
     *         down unless all steps can succeed
     */
    tenant::TenantStatus
    teardownTenant(tenant::TenantRegistry& reg, tenant::TenantId asid)
        AP_MUST_CHECK
    {
        tenant::TenantStatus st =
            fs_->cache().teardownTenantHost(asid);
        if (st != tenant::TenantStatus::Ok)
            return st;
        return reg.releaseTenant(asid);
    }

    /**
     * Reserve @p bytes of swap space for an anonymous mapping. The
     * swap file backs zero-fill-on-demand pages and receives evicted
     * dirty pages; it is created lazily in the host backing store.
     *
     * @return byte offset of the reservation within the swap file
     */
    uint64_t
    swapAlloc(uint64_t bytes)
    {
        hostio::BackingStore& bs = fs_->io().store();
        if (swapFile < 0) {
            swapFile = bs.create(".gvm_swap", 0);
        }
        uint64_t off = roundUp(bs.size(swapFile), gpufs::kPageBytes);
        bs.truncate(swapFile, off + roundUp(bytes, gpufs::kPageBytes));
        return off;
    }

    /** The swap file descriptor (valid after the first swapAlloc). */
    hostio::FileId swapFileId() const { return swapFile; }

  private:
    gpufs::GpuFs* fs_;
    GvmConfig cfg_;
    AptrCosts costs_;
    hostio::FileId swapFile = -1;
};

} // namespace ap::core

#endif // AP_CORE_RUNTIME_HH

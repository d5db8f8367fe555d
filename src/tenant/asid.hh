/**
 * @file
 * Address-space identifiers (ASIDs): the tenant tag threaded through
 * the whole translation stack — the apointer translation field, the
 * software TLB, the page-table key, and host-IO request attribution.
 * Per-application memory-manager state is the right granularity for
 * isolation on a shared GPU (Mosaic / multi-application GPU memory
 * work); here every PageKey carries its owner, so two tenants mapping
 * the same file offset get distinct entries and teardown can find
 * exactly its own state.
 *
 * It also holds the one definition of the 64-bit page key layout
 * (gpufs::PageKey): 8 bits of ASID at bit 56, 16 bits of file id at
 * bit 40, 40 bits of page number at bit 0. The header is
 * dependency-free on purpose: the simulator's checker (sim/check)
 * names and audits pages by their key without linking gpufs or the
 * tenant registry.
 */

#ifndef AP_TENANT_ASID_HH
#define AP_TENANT_ASID_HH

#include <cstdint>

namespace ap::tenant {

/** One tenant's address-space id. 0 is the default (pre-registered)
 * tenant every warp starts bound to. */
using TenantId = uint16_t;

/** The default address space. */
constexpr TenantId kDefaultTenant = 0;

/** ASID width in the page key and the long translation field. */
constexpr unsigned kAsidBits = 8;

/** Tenants per process (ASIDs are never reused within a run). */
constexpr uint32_t kMaxTenants = 1u << kAsidBits;

/** Bit position of the ASID within a 64-bit gpufs::PageKey. */
constexpr unsigned kKeyAsidShift = 56;

/** Bit position of the 16-bit file id within a page key. */
constexpr unsigned kKeyFileShift = 40;

/** Page-number bits: everything below the file id. */
constexpr uint64_t kKeyPageMask = (uint64_t{1} << kKeyFileShift) - 1;

/** Page key for @p asid's view of page @p page_no of file @p file. */
constexpr uint64_t
makeKey(TenantId asid, uint32_t file, uint64_t page_no)
{
    return (static_cast<uint64_t>(asid) << kKeyAsidShift) |
           (static_cast<uint64_t>(file & 0xffff) << kKeyFileShift) |
           (page_no & kKeyPageMask);
}

/** ASID component of a raw 64-bit page key. */
constexpr TenantId
keyAsid(uint64_t key)
{
    return static_cast<TenantId>(key >> kKeyAsidShift);
}

/** File id component of a raw page key. */
constexpr uint32_t
keyFile(uint64_t key)
{
    return static_cast<uint32_t>(key >> kKeyFileShift) & 0xffff;
}

/** Page number component of a raw page key. */
constexpr uint64_t
keyPageNo(uint64_t key)
{
    return key & kKeyPageMask;
}

} // namespace ap::tenant

#endif // AP_TENANT_ASID_HH

/**
 * @file
 * The apointer translation field: the 64-bit word the paper designs to
 * fit in a single hardware register (section IV-A, Figure 5). Contains
 * a valid bit distinguishing linked from unlinked apointers, access
 * permission bits, and the mapping payload.
 *
 * Long layout (AptrKind::Long):
 *   [63] valid | [62:61] perm | [60:53] asid | [52:0] payload
 *   payload = aphysical byte address when linked,
 *             file byte offset (xAddress) when unlinked.
 *   The asid field tags the translation with its address space
 *   (tenant), making the register self-describing in a multi-tenant
 *   process: the fault handler keys the TLB and page table on
 *   (asid, file, page), so tenants never alias each other's mappings.
 *
 * Short layout (AptrKind::Short):
 *   [63] valid | [62:61] perm | [60:49] in-page offset (12)
 *   | [48:21] xpage: file page number (28) | [20:0] frame number (21)
 *   Both the aphysical frame and the xAddress stay resident, trading
 *   reach (1 TB files, 8 GB cache at 4 KB pages) for cheap state
 *   transitions and a smaller TLB entry.
 */

#ifndef AP_CORE_TRANSLATION_HH
#define AP_CORE_TRANSLATION_HH

#include <cstdint>

#include "util/bitfield.hh"

namespace ap::core {

/** Permission bits inside the translation field. */
enum PermBits : uint64_t {
    kPermRead = 0x1,
    kPermWrite = 0x2,
};

/** Field positions shared by both layouts. */
constexpr unsigned kValidBit = 63;
constexpr unsigned kPermShift = 61;
constexpr unsigned kPermWidth = 2;

/** Long layout: 53-bit payload below an 8-bit address-space id. */
constexpr unsigned kLongPayloadWidth = 53;
constexpr unsigned kLongAsidShift = kLongPayloadWidth;
constexpr unsigned kLongAsidWidth = 8;

/** Short layout geometry (4 KB pages). */
constexpr unsigned kShortFrameWidth = 21;
constexpr unsigned kShortXpageShift = kShortFrameWidth;
constexpr unsigned kShortXpageWidth = 28;
constexpr unsigned kShortOffShift = kShortFrameWidth + kShortXpageWidth;
constexpr unsigned kShortOffWidth = 12;

/** True iff the translation is linked (holds a valid mapping). */
constexpr bool
translationValid(uint64_t t)
{
    return bits(t, kValidBit, 1) != 0;
}

/** Permission bits of a translation. */
constexpr uint64_t
translationPerm(uint64_t t)
{
    return bits(t, kPermShift, kPermWidth);
}

// ---------------------------------------------------------------------
// Long layout
// ---------------------------------------------------------------------

/** Build a linked long translation pointing at @p aphys. */
constexpr uint64_t
packLongLinked(uint64_t aphys, uint64_t perm, uint64_t asid = 0)
{
    uint64_t t = insertBits(0, 0, kLongPayloadWidth, aphys);
    t = insertBits(t, kLongAsidShift, kLongAsidWidth, asid);
    t = insertBits(t, kPermShift, kPermWidth, perm);
    return insertBits(t, kValidBit, 1, 1);
}

/** Build an unlinked long translation holding file offset @p xaddr. */
constexpr uint64_t
packLongUnlinked(uint64_t xaddr, uint64_t perm, uint64_t asid = 0)
{
    uint64_t t = insertBits(0, 0, kLongPayloadWidth, xaddr);
    t = insertBits(t, kLongAsidShift, kLongAsidWidth, asid);
    return insertBits(t, kPermShift, kPermWidth, perm);
}

/** Payload (aphysical address or xAddress) of a long translation. */
constexpr uint64_t
longPayload(uint64_t t)
{
    return bits(t, 0, kLongPayloadWidth);
}

// ---------------------------------------------------------------------
// Short layout
// ---------------------------------------------------------------------

/** Build a short translation; @p valid selects linked/unlinked. */
constexpr uint64_t
packShort(uint32_t frame, uint64_t xpage, uint32_t off, uint64_t perm,
          bool valid)
{
    uint64_t t = insertBits(0, 0, kShortFrameWidth, frame);
    t = insertBits(t, kShortXpageShift, kShortXpageWidth, xpage);
    t = insertBits(t, kShortOffShift, kShortOffWidth, off);
    t = insertBits(t, kPermShift, kPermWidth, perm);
    return insertBits(t, kValidBit, 1, valid ? 1 : 0);
}

/** Frame number of a short translation. */
constexpr uint32_t
shortFrame(uint64_t t)
{
    return static_cast<uint32_t>(bits(t, 0, kShortFrameWidth));
}

/** File page number of a short translation. */
constexpr uint64_t
shortXpage(uint64_t t)
{
    return bits(t, kShortXpageShift, kShortXpageWidth);
}

/** In-page offset of a short translation. */
constexpr uint32_t
shortOff(uint64_t t)
{
    return static_cast<uint32_t>(bits(t, kShortOffShift, kShortOffWidth));
}

} // namespace ap::core

#endif // AP_CORE_TRANSLATION_HH

#include "tenant/tenant.hh"

#include "util/logging.hh"

namespace ap::tenant {

const char*
tenantStatusName(TenantStatus st)
{
    switch (st) {
    case TenantStatus::Ok: return "Ok";
    case TenantStatus::TooMany: return "TooMany";
    case TenantStatus::Unknown: return "Unknown";
    case TenantStatus::Busy: return "Busy";
    }
    return "?";
}

TenantRegistry::TenantRegistry()
{
    TenantSpec def;
    def.name = "default";
    RegisterResult r = registerTenant(def);
    AP_ASSERT(r.ok() && r.id == kDefaultTenant,
              "default tenant must get ASID 0");
}

RegisterResult
TenantRegistry::registerTenant(const TenantSpec& spec)
{
    if (slots_.size() >= kMaxTenants)
        return RegisterResult{TenantStatus::TooMany, kDefaultTenant};
    TenantId id = static_cast<TenantId>(slots_.size());
    Slot s;
    s.name = spec.name;
    s.statPrefix = "tenant.t" + std::to_string(id) + ".";
    s.cacheWeight = spec.cacheWeight;
    s.ioWeight = spec.ioWeight;
    s.live = true;
    slots_.push_back(std::move(s));
    active_++;
    totalCacheWeight_ += spec.cacheWeight;
    return RegisterResult{TenantStatus::Ok, id};
}

TenantStatus
TenantRegistry::releaseTenant(TenantId id)
{
    if (id >= slots_.size() || !slots_[id].live)
        return TenantStatus::Unknown;
    if (slots_[id].frames != 0)
        return TenantStatus::Busy;
    slots_[id].live = false;
    totalCacheWeight_ -= slots_[id].cacheWeight;
    active_--;
    return TenantStatus::Ok;
}

bool
TenantRegistry::active(TenantId id) const
{
    return id < slots_.size() && slots_[id].live;
}

const TenantRegistry::Slot*
TenantRegistry::slotOf(TenantId id) const
{
    return id < slots_.size() ? &slots_[id] : nullptr;
}

const std::string&
TenantRegistry::nameOf(TenantId id) const
{
    static const std::string unknown = "?";
    const Slot* s = slotOf(id);
    return s ? s->name : unknown;
}

const std::string&
TenantRegistry::statPrefix(TenantId id) const
{
    static const std::string unknown = "tenant.t?.";
    const Slot* s = slotOf(id);
    return s ? s->statPrefix : unknown;
}

uint32_t
TenantRegistry::cacheWeightOf(TenantId id) const
{
    const Slot* s = slotOf(id);
    return s && s->live ? s->cacheWeight : 0;
}

uint32_t
TenantRegistry::ioWeightOf(TenantId id) const
{
    const Slot* s = slotOf(id);
    return s && s->live ? s->ioWeight : 0;
}

void
TenantRegistry::attachCacheFrames(uint32_t frames)
{
    cacheFrames_ = frames;
    for (Slot& s : slots_)
        s.frames = 0;
}

void
TenantRegistry::noteFrameGained(TenantId id)
{
    AP_ASSERT(id < slots_.size(), "frame charged to unregistered tenant ",
              id);
    slots_[id].frames++;
}

void
TenantRegistry::noteFrameLost(TenantId id)
{
    AP_ASSERT(id < slots_.size() && slots_[id].frames > 0,
              "frame accounting underflow for tenant ", id);
    slots_[id].frames--;
}

uint64_t
TenantRegistry::framesOf(TenantId id) const
{
    const Slot* s = slotOf(id);
    return s ? s->frames : 0;
}

uint64_t
TenantRegistry::frameShare(TenantId id) const
{
    const Slot* s = slotOf(id);
    if (!s || !s->live || totalCacheWeight_ == 0)
        return 0;
    return static_cast<uint64_t>(cacheFrames_) * s->cacheWeight /
           totalCacheWeight_;
}

bool
TenantRegistry::overShare(TenantId id) const
{
    return framesOf(id) > frameShare(id);
}

} // namespace ap::tenant

/**
 * @file
 * Errno-style result codes for the host I/O path. Every operation that
 * can fail — a backing-store access, an engine transfer, a page-cache
 * fill, an apointer dereference that faults — reports one of these
 * instead of asserting, so injected I/O faults surface as recoverable
 * errors rather than aborts.
 */

#ifndef AP_HOSTIO_IO_RESULT_HH
#define AP_HOSTIO_IO_RESULT_HH

#include <cstdint>

namespace ap::hostio {

/** Result of a host I/O operation (0 = success, like errno). */
enum class IoStatus : int32_t {
    Ok = 0,
    /** Invalid file descriptor (e.g. the -1 a failed open returns). */
    BadFile = 1,
    /** The byte range does not fit inside the file. */
    Eof = 2,
    /**
     * Transient failure worth retrying. Internal to the engine: the
     * retry loop absorbs it, callers only ever see Ok or a terminal
     * status.
     */
    Again = 3,
    /** Persistent failure; retries exhausted or pointless. */
    IoError = 4,
};

/** Printable name of @p s. */
inline const char*
ioStatusName(IoStatus s)
{
    switch (s) {
      case IoStatus::Ok:
        return "ok";
      case IoStatus::BadFile:
        return "bad-file";
      case IoStatus::Eof:
        return "eof";
      case IoStatus::Again:
        return "again";
      case IoStatus::IoError:
        return "io-error";
    }
    return "?";
}

} // namespace ap::hostio

#endif // AP_HOSTIO_IO_RESULT_HH

/// \file checkpoint2.hpp
/// Hardened, versioned checkpoint format "YYCORE02".
///
/// The paper's production run wrote 3-D state 127 times over a 6-hour
/// 4096-process job (§V, ~500 GB); at that scale a run *is* its
/// checkpoint/restart discipline.  The format is built to fail loudly
/// instead of restarting wrong:
///
///   offset  size  content
///   0       8     magic "YYCORE02"
///   8       4     u32 header length H (little-endian)
///   12      H     header, explicitly serialized little-endian fields
///                 (never a raw struct): u32 version, i32 nr/nt/np/
///                 panels, f64 time, i64 step, f64 dt, i32 world_size/
///                 world_rank/pt/pp/panel
///   12+H    4     u32 CRC32 of the header bytes
///   then per panel:
///           8     u64 payload length P (= 8 fields × nr·nt·np × 8)
///           P     field payload, fixed order ρ,f_r,f_θ,f_φ,p,A_r,A_θ,A_φ
///           4     u32 CRC32 of the payload bytes
///   end of file exactly after the last section (trailing bytes are a
///   format error).
///
/// Writes go to `path + ".tmp"` and are committed with rename(2), so a
/// crash mid-write never tears a published checkpoint.  Loads validate
/// magic, version, header CRC, header dims against the passed Fields
/// shapes, section lengths, payload CRCs and EOF — and stage payloads
/// in scratch memory so a failed load NEVER leaves the caller's state
/// partially overwritten.  Every corruption (truncation, bit-flip,
/// garbage) yields a status, not a crash or a silently wrong state.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "mhd/state.hpp"

namespace yy::resilience {

struct CheckpointMetaV2 {
  int nr = 0, nt = 0, np = 0;  ///< full (interior+ghost) array dims
  int panels = 1;              ///< 1 (one patch) or 2 (Yin-Yang pair)
  double time = 0.0;
  long long step = 0;
  double dt = 0.0;             ///< dt in use when the snapshot was taken
  // Distributed-run identity (-1 where not applicable, e.g. serial).
  int world_size = -1;
  int world_rank = -1;
  int pt = -1, pp = -1;
  int panel = -1;              ///< 0 = Yin, 1 = Yang
};

enum class LoadStatus {
  ok = 0,
  io_error,     ///< file missing/unreadable
  bad_magic,    ///< not a YYCORE02 file
  bad_header,   ///< header malformed or header CRC mismatch
  bad_shape,    ///< header dims/panels disagree with the passed Fields
  bad_payload,  ///< section truncated, length mismatch, CRC mismatch,
                ///< or trailing bytes after the last section
};

const char* load_status_name(LoadStatus s);

/// Fault simulation hook for the commit step, used by the fault
/// injection machinery (comm::FaultPlan I/O schedule) to provoke the
/// recovery paths on demand:
///  * fail_before_commit: the temp file is discarded, save reports
///    failure — models ENOSPC / a crash before rename.
///  * torn_commit: a truncated file is renamed into place and save
///    reports success — models a torn/bit-rotted published file, which
///    only the loader's CRC check can catch.
enum class IoFaultSim { none = 0, fail_before_commit, torn_commit };

/// Atomically writes header + panels; returns false on I/O failure.
/// `panel1` must be non-null iff meta.panels == 2; field shapes must
/// equal meta dims (precondition).
bool save_checkpoint_v2(const std::string& path, const CheckpointMetaV2& meta,
                        const mhd::Fields* panel0, const mhd::Fields* panel1,
                        IoFaultSim fault = IoFaultSim::none);

/// Validating load.  With panel0 == nullptr only the header is read and
/// validated (peek).  On any status other than `ok` the passed Fields
/// are untouched.
LoadStatus load_checkpoint_v2(const std::string& path, CheckpointMetaV2& meta,
                              mhd::Fields* panel0, mhd::Fields* panel1);

/// In-memory YYCORE02 image, byte-identical to the file that
/// save_checkpoint_v2 commits.  The diskless buddy store replicates
/// these images over the message fabric instead of through the
/// filesystem; same preconditions as save_checkpoint_v2.
std::vector<unsigned char> encode_checkpoint_v2(const CheckpointMetaV2& meta,
                                                const mhd::Fields* panel0,
                                                const mhd::Fields* panel1);

/// Validating decode of an in-memory image: statuses and staging
/// semantics mirror load_checkpoint_v2 exactly (panel0 == nullptr peeks
/// the header only; targets are untouched unless the whole image
/// validates).
LoadStatus decode_checkpoint_v2(const unsigned char* data, std::size_t size,
                                CheckpointMetaV2& meta, mhd::Fields* panel0,
                                mhd::Fields* panel1);

/// Full structural + CRC validation of an image WITHOUT Fields of the
/// matching shape: payload lengths are checked against the header dims,
/// every section CRC is verified, and trailing bytes are rejected.  A
/// buddy rank uses this to vet a replica whose patch shape differs from
/// its own.  Optionally returns the parsed header.
LoadStatus validate_checkpoint_image(const unsigned char* data,
                                     std::size_t size,
                                     CheckpointMetaV2* meta = nullptr);

}  // namespace yy::resilience

/**
 * @file
 * Binary trace files: record a committed-path instruction stream to
 * disk and replay it later without re-executing the program — the
 * workflow trace-driven studies of the paper's era used to share
 * workloads between groups.  The same CPET format backs the trace
 * cache's on-disk spill (sim::TraceCache, cpe_eval --trace-cache).
 *
 * Format: a 16-byte header (magic "CPET", version, record count)
 * followed by fixed-size records.  The static instruction is stored
 * in its 32-bit binary encoding, so reading a trace exercises the
 * same decoder as reading a program image.
 *
 * Versioning rule (docs/reproducing.md): any change to the record
 * layout, the header, or the meaning of a field must bump the format
 * version.  Readers reject other versions with IoError, and the
 * trace cache keys its entries on the version, so stale spill files
 * are never replayed as current ones.
 *
 * Error contract (DESIGN.md "Error-handling contract"): everything
 * here throws SimError subclasses — IoError for missing, malformed,
 * truncated, or unwritable files, WorkloadError for a stream that
 * cannot be encoded — never fatal()/panic().
 */

#ifndef CPE_FUNC_TRACE_FILE_HH
#define CPE_FUNC_TRACE_FILE_HH

#include <cstdio>
#include <memory>
#include <string>

#include "func/captured_trace.hh"

namespace cpe::func {

/** The on-disk format version written and accepted by this build. */
std::uint32_t traceFileVersion();

/**
 * Record up to @p max_insts records from @p source into the file at
 * @p path.
 * @return the number of records written.
 * @throws IoError when the file cannot be created or a write fails;
 *         WorkloadError when the stream contains an instruction the
 *         binary encoding cannot represent.
 */
std::uint64_t writeTrace(TraceSource &source, const std::string &path,
                         std::uint64_t max_insts = ~0ull);

/**
 * Read an entire trace file into a capture, each record decoded
 * straight into its final slot.
 * @throws IoError on a missing/malformed/truncated file, a version
 *         mismatch, or an undecodable record.
 */
CapturedTrace readTrace(const std::string &path);

/**
 * Streams a trace file as a TraceSource.
 * @throws IoError (from the constructor) on a missing or malformed
 *         file, and (from next()) on an undecodable record.
 */
class FileTraceSource : public TraceSource
{
  public:
    explicit FileTraceSource(const std::string &path);
    ~FileTraceSource() override;

    FileTraceSource(const FileTraceSource &) = delete;
    FileTraceSource &operator=(const FileTraceSource &) = delete;

    bool next(DynInst &out) override;

    /** Total records the header promises. */
    std::uint64_t recordCount() const { return count_; }

  private:
    std::string path_;
    std::FILE *file_ = nullptr;
    std::uint64_t count_ = 0;
    std::uint64_t read_ = 0;
};

} // namespace cpe::func

#endif // CPE_FUNC_TRACE_FILE_HH

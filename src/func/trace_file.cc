#include "func/trace_file.hh"

#include <cstring>

#include "isa/encoding.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace cpe::func {

namespace {

constexpr char Magic[4] = {'C', 'P', 'E', 'T'};
constexpr std::uint32_t Version = 1;

/** On-disk record layout (packed manually for portability). */
struct Record
{
    std::uint64_t seq;
    std::uint64_t pc;
    std::uint64_t memAddr;
    std::uint64_t nextPc;
    std::uint32_t instWord;
    std::uint8_t memSize;
    std::uint8_t flags;  ///< bit 0 = taken, bit 1 = kernelMode
    std::uint8_t pad[2];
};
static_assert(sizeof(Record) == 40, "trace record layout drifted");

struct Header
{
    char magic[4];
    std::uint32_t version;
    std::uint64_t count;
};
static_assert(sizeof(Header) == 16, "trace header layout drifted");

} // namespace

std::uint32_t
traceFileVersion()
{
    return Version;
}

std::uint64_t
writeTrace(TraceSource &source, const std::string &path,
           std::uint64_t max_insts)
{
    std::FILE *file = std::fopen(path.c_str(), "wb");
    if (!file)
        throw IoError(Msg() << "writeTrace: cannot create " << path);

    Header header{};
    std::memcpy(header.magic, Magic, 4);
    header.version = Version;
    header.count = 0;  // patched at the end
    if (std::fwrite(&header, sizeof(header), 1, file) != 1) {
        std::fclose(file);
        throw IoError(Msg() << "writeTrace: failed writing header to "
                            << path);
    }

    std::uint64_t written = 0;
    DynInst inst;
    while (written < max_insts && source.next(inst)) {
        auto encoded = isa::encode(inst.inst);
        if (!encoded.ok()) {
            std::fclose(file);
            throw WorkloadError(
                Msg() << "writeTrace: unencodable instruction at pc=0x"
                      << std::hex << inst.pc);
        }
        Record record{};
        record.seq = inst.seq;
        record.pc = inst.pc;
        record.memAddr = inst.memAddr;
        record.nextPc = inst.nextPc;
        record.instWord = encoded.word;
        record.memSize = inst.memSize;
        record.flags = static_cast<std::uint8_t>(
            (inst.taken ? 1 : 0) | (inst.kernelMode ? 2 : 0));
        if (std::fwrite(&record, sizeof(record), 1, file) != 1) {
            std::fclose(file);
            throw IoError(Msg() << "writeTrace: failed writing record "
                                << written << " to " << path);
        }
        ++written;
    }

    header.count = written;
    bool patched = std::fseek(file, 0, SEEK_SET) == 0 &&
                   std::fwrite(&header, sizeof(header), 1, file) == 1;
    bool flushed = std::fflush(file) == 0;
    std::fclose(file);
    if (!patched || !flushed)
        throw IoError(Msg() << "writeTrace: failed finalizing " << path);
    return written;
}

CapturedTrace
readTrace(const std::string &path)
{
    FileTraceSource source(path);
    CapturedTrace trace = CapturedTrace::capture(source);
    if (trace.size() != source.recordCount())
        throw IoError(Msg() << path << " is truncated: header promises "
                            << source.recordCount() << " records, found "
                            << trace.size());
    return trace;
}

FileTraceSource::FileTraceSource(const std::string &path) : path_(path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        throw IoError(Msg() << "cannot open trace file " << path);
    Header header{};
    if (std::fread(&header, sizeof(header), 1, file_) != 1 ||
        std::memcmp(header.magic, Magic, 4) != 0) {
        std::fclose(file_);
        file_ = nullptr;
        throw IoError(Msg() << path << " is not a CPET trace");
    }
    if (header.version != Version) {
        std::fclose(file_);
        file_ = nullptr;
        throw IoError(Msg() << path << ": unsupported trace version "
                            << header.version);
    }
    count_ = header.count;
}

FileTraceSource::~FileTraceSource()
{
    if (file_)
        std::fclose(file_);
}

bool
FileTraceSource::next(DynInst &out)
{
    if (read_ >= count_)
        return false;
    Record record{};
    if (std::fread(&record, sizeof(record), 1, file_) != 1)
        return false;
    auto inst = isa::decode(record.instWord);
    if (!inst) {
        throw IoError(Msg() << path_ << ": corrupt trace record "
                            << read_
                            << ": undecodable instruction word");
    }
    out = DynInst{};
    out.seq = record.seq;
    out.pc = record.pc;
    out.inst = *inst;
    out.cls = isa::classOf(inst->op);
    out.memAddr = record.memAddr;
    out.memSize = record.memSize;
    out.nextPc = record.nextPc;
    out.taken = record.flags & 1;
    out.kernelMode = record.flags & 2;
    ++read_;
    return true;
}

} // namespace cpe::func

/**
 * @file
 * tools/ulint — command-line front end for the control-store linter.
 *
 * Runs every ulint rule against the shipped microprogram (or the
 * no-FPA variant) and prints the findings, or emits the static
 * attribution matrix the runtime audit checks against, or the
 * pre-decoded row matrix the threaded dispatcher executes. Exits 0
 * when the image is clean, 1 when any Error-severity finding fired, 2
 * on usage errors, so build scripts and CI can gate on it.
 *
 * Usage: ulint [--report|--json|--sarif|--attribution|--decoded]
 *              [--no-fpa] [--quiet]
 */

#include <cstdio>
#include <cstring>

#include "common/json.hh"
#include "ucode/controlstore.hh"
#include "ucode/decoded.hh"
#include "ulint/cfg.hh"
#include "ulint/effects.hh"
#include "ulint/ulint.hh"

namespace
{

int
usage(const char *argv0)
{
    fprintf(stderr,
            "usage: %s [--report|--json|--sarif|--attribution|"
            "--decoded]\n"
            "          [--no-fpa] [--quiet]\n"
            "  --report       print the full findings report "
            "(default)\n"
            "  --json         print the report as JSON\n"
            "  --sarif        print the report as SARIF 2.1.0 (CI "
            "annotations)\n"
            "  --attribution  print the static attribution matrix "
            "(word ->\n"
            "                 cycle class, stall capability, allowed "
            "counters)\n"
            "  --decoded      print the pre-decoded row matrix the "
            "threaded\n"
            "                 dispatcher executes (word -> fused "
            "form,\n"
            "                 read/write class, pad-superblock run "
            "length)\n"
            "  --no-fpa       lint the microprogram assembled without "
            "the FPA\n"
            "  --quiet        print nothing; exit status only\n"
            "exit status:\n"
            "  0  image is clean (no Error-severity finding)\n"
            "  1  at least one Error-severity finding fired\n"
            "  2  usage error\n",
            argv0);
    return 2;
}

enum class Output
{
    Text,
    Json,
    Sarif,
    Attribution,
    Decoded,
};

/**
 * The decoded-row matrix as JSON: one entry per allocated word with
 * its fused form (the "handler" key), static read/write cycle class,
 * and (for Pad rows) the micro-trace superblock run length. This is
 * exactly what the threaded dispatcher executes, so downstream audits
 * can diff it against the attribution matrix without linking the
 * simulator.
 */
std::string
decodedJson(const upc780::ucode::MicrocodeImage &img)
{
    using namespace upc780;
    std::shared_ptr<const ucode::DecodedImage> dec =
        ucode::decodedImage(img);
    json::Value rows = json::array();
    for (uint32_t a = 1; a < img.allocated; ++a) {
        const ucode::DecodedRow &r = dec->rows[a];
        rows.push(json::Members{
            {"addr", int64_t{a}},
            {"handler", std::string(ucode::hxName(r.h))},
            {"memRead", bool(r.memRead)},
            {"memWrite", bool(r.memWrite)},
            {"runLen", int64_t{r.runLen}}});
    }
    return json::Value(json::Members{{"rows", std::move(rows)}})
        .dumpPretty();
}

} // namespace

int
main(int argc, char **argv)
{
    Output out = Output::Text;
    bool quiet = false;
    bool no_fpa = false;

    for (int i = 1; i < argc; ++i) {
        if (!strcmp(argv[i], "--report")) {
            out = Output::Text;
        } else if (!strcmp(argv[i], "--json")) {
            out = Output::Json;
        } else if (!strcmp(argv[i], "--sarif")) {
            out = Output::Sarif;
        } else if (!strcmp(argv[i], "--attribution")) {
            out = Output::Attribution;
        } else if (!strcmp(argv[i], "--decoded")) {
            out = Output::Decoded;
        } else if (!strcmp(argv[i], "--no-fpa")) {
            no_fpa = true;
        } else if (!strcmp(argv[i], "--quiet")) {
            quiet = true;
        } else {
            return usage(argv[0]);
        }
    }

    const upc780::ucode::MicrocodeImage &img =
        no_fpa ? upc780::ucode::microcodeImageNoFpa()
               : upc780::ucode::microcodeImage();

    upc780::ulint::Report report = upc780::ulint::lint(img);

    if (!quiet) {
        switch (out) {
          case Output::Text:
            fputs(report.toText().c_str(), stdout);
            break;
          case Output::Json:
            fputs(report.toJson().c_str(), stdout);
            break;
          case Output::Sarif:
            fputs(report.toSarif().c_str(), stdout);
            break;
          case Output::Attribution: {
            upc780::ulint::MicroCfg cfg(img);
            upc780::ulint::EffectMap fx(img);
            fputs(fx.toJson(cfg).c_str(), stdout);
            break;
          }
          case Output::Decoded:
            fputs(decodedJson(img).c_str(), stdout);
            break;
        }
    }
    return report.clean() ? 0 : 1;
}

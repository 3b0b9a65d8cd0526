// Package cliutil holds the small amount of plumbing shared by the
// command-line tools: corpus file I/O with format detection.
package cliutil

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"scholarrank/internal/corpus"
)

// ErrUnknownFormat reports an unrecognised corpus file format.
var ErrUnknownFormat = errors.New("cliutil: unknown corpus format")

// Formats accepted by the tools.
const (
	FormatJSONL = "jsonl"
	FormatTSV   = "tsv"
	// FormatSCORP is the columnar zero-parse corpus format.
	FormatSCORP = "scorp"
	// FormatAMiner is the AMiner citation-dataset JSON-lines schema
	// (read-only; select explicitly with -format aminer).
	FormatAMiner = "aminer"
)

// Formats is every format name the tools accept, in the order help
// and error texts print them. It is the one list: DetectFormat
// validates explicit names against it and the binaries build their
// -in/-format help from FormatList.
var Formats = []string{FormatJSONL, FormatTSV, FormatSCORP, FormatAMiner}

// FormatList is Formats comma-joined, for flag help and error text.
func FormatList() string { return strings.Join(Formats, ", ") }

// DetectFormat infers the corpus format from a file name; explicit
// wins over extension. A trailing .gz is transparent: real
// bibliographic dumps ship gzipped, so "corpus.jsonl.gz" detects as
// JSONL (LoadCorpus and SaveCorpus handle the compression).
func DetectFormat(path, explicit string) (string, error) {
	if explicit != "" {
		if slices.Contains(Formats, explicit) {
			return explicit, nil
		}
		return "", fmt.Errorf("%w: %q (have %s)", ErrUnknownFormat, explicit, FormatList())
	}
	switch strings.ToLower(filepath.Ext(strings.TrimSuffix(path, ".gz"))) {
	case ".jsonl", ".json", ".ndjson":
		return FormatJSONL, nil
	case ".tsv", ".txt":
		return FormatTSV, nil
	case ".scorp":
		return FormatSCORP, nil
	}
	return "", fmt.Errorf("%w: cannot infer from %q (use -format: %s)", ErrUnknownFormat, path, FormatList())
}

// LoadCorpus reads a corpus file in the given (or inferred) format,
// transparently decompressing .gz files. An uncompressed SCORP file is
// read section by section (corpus.ReadSCORPFile) rather than buffered
// whole.
func LoadCorpus(path, format string) (*corpus.Store, error) {
	format, err := DetectFormat(path, format)
	if err != nil {
		return nil, err
	}
	gzipped := strings.HasSuffix(strings.ToLower(path), ".gz")
	if format == FormatSCORP && !gzipped {
		return corpus.ReadSCORPFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("cliutil: open corpus: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if gzipped {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("cliutil: gzip: %w", err)
		}
		defer gz.Close()
		r = gz
	}
	return ReadCorpus(r, format)
}

// SaveCorpus writes a corpus file in the given (or inferred) format,
// transparently gzip-compressing when the path ends in .gz.
func SaveCorpus(path, format string, s *corpus.Store) error {
	format, err := DetectFormat(path, format)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cliutil: create corpus: %w", err)
	}
	var w io.Writer = f
	var gz *gzip.Writer
	if strings.HasSuffix(strings.ToLower(path), ".gz") {
		gz = gzip.NewWriter(f)
		w = gz
	}
	if err := WriteCorpus(w, s, format); err != nil {
		f.Close()
		return err
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			f.Close()
			return fmt.Errorf("cliutil: gzip close: %w", err)
		}
	}
	return f.Close()
}

// ReadCorpus decodes a corpus from r in the given format. Citations
// to articles outside the file are dropped, matching how real
// bibliographic dumps are loaded.
func ReadCorpus(r io.Reader, format string) (*corpus.Store, error) {
	opts := corpus.ReadOptions{AllowDanglingRefs: true}
	switch format {
	case FormatJSONL:
		return corpus.ReadJSONL(r, opts)
	case FormatTSV:
		return corpus.ReadTSV(r, opts)
	case FormatSCORP:
		return corpus.ReadSCORP(r)
	case FormatAMiner:
		s, _, _, err := corpus.ReadAMinerJSON(r)
		return s, err
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownFormat, format)
}

// WriteCorpus encodes a corpus to w in the given format.
func WriteCorpus(w io.Writer, s *corpus.Store, format string) error {
	switch format {
	case FormatJSONL:
		return corpus.WriteJSONL(w, s)
	case FormatTSV:
		return corpus.WriteTSV(w, s)
	case FormatSCORP:
		return corpus.WriteSCORP(w, s)
	}
	return fmt.Errorf("%w: %q", ErrUnknownFormat, format)
}

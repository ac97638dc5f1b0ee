package synth

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"ibsim/internal/trace"
)

// pinnedStreamRefs is how many references of each stream the pin hashes.
const pinnedStreamRefs = 200_000

// pinnedStreams holds the SHA-256 of the first pinnedStreamRefs references
// of every registered profile at seeds 0 and 1: "full" is the generator's
// own stream (instruction fetches interleaved with data references),
// "instr" the instruction-only stream of InstrTrace, read here as runs
// (SeekSource) and expanded, so the pin covers the run reader too. Any
// change to the generator, its RNG or its samplers that alters a single
// reference fails here, not only in the seed-0 exhibit digests.
var pinnedStreams = map[string]string{
	"eqntott/0/full":           "06778524e3d7af7540e2415856fc0a656a8b1f922315281064154075bb97092c",
	"eqntott/0/instr":          "0386e03d6bb234565161735bf2acc1cd2b520488d1fcca2b1857fc6e3642cec4",
	"eqntott/1/full":           "15fd9b2b76ce0596a77808a74e12ff2f3acc182a8ac8f6c14d83b2538d63badd",
	"eqntott/1/instr":          "f13a424ccfc2a242446e0e4213bb87aafd2743d8d5dc28538bb0aa4611c10a0d",
	"espresso/0/full":          "b0d32042a43cb167fc9e5366198643e8c2be3e215a862392dec69108c4437a3c",
	"espresso/0/instr":         "85b87a3332cb79bb13cf9cfe609ea165649838910fd6950932674f837986be18",
	"espresso/1/full":          "3c6bb97c64ad66bb15274847405b4c06500401d95cb43de4bd144f92e2022daf",
	"espresso/1/instr":         "f3f309c5fdf1e9101daaf4f71a4c0951c455993506156c4c61f474406ce83cba",
	"gcc/0/full":               "b7edf959afc88f97d31e1f8bdea18ca0fbda804772ca216454a19529dd87a501",
	"gcc/0/instr":              "27a287a97a4e5876ae74a21383ef4b2413859b1a854f09a991c564ee08ac4347",
	"gcc/1/full":               "1e813fe19748b8fc54fc473722a9d853f63514df3b086b7b275dfcf372965d04",
	"gcc/1/instr":              "629c57c1156c156d7cb74ba7bf9863a6a3ab4a243dd1373271edc1562bcc975c",
	"gcc/ultrix/0/full":        "89d566c899446ab330fd05ca98dddbd53cd2b6b7d5d6195905f05fefd9e36ed0",
	"gcc/ultrix/0/instr":       "318df02e9cd92996fc075cddc85dd6ba9a7b315c2c3638d2fb16022ee528f202",
	"gcc/ultrix/1/full":        "da91af309fe88135249a8cea1b825fb773d3bc5ca8b18e7822bc8d780163ba06",
	"gcc/ultrix/1/instr":       "8519015975dfd7d052cfa98c6781f30173c5c1568d517833c0b5929ff4176ff6",
	"groff/0/full":             "be8eeafa1b81cc6dc5f2bc77e5d44959b84abbe744ca51ee72eafe3c74a4e637",
	"groff/0/instr":            "5aab3f354d5ad99138114e74805c494fb15f813fa8bf930410b1a4b39669936c",
	"groff/1/full":             "aaec9b849c88906036e84d7ff9ca7f6891ef4ef77863cfc454a4f4364dc051cc",
	"groff/1/instr":            "4e4d58f022fb24229549a4ee0ec310440517ab2b6494bc179aa274be709e08fe",
	"groff/ultrix/0/full":      "0bb396112f21e6d3fa1e38cc2ea82338906c4039d53f6e1bf8ec9e4eb2f01d6c",
	"groff/ultrix/0/instr":     "8882f10ae8b6d4f64d1548c81dcdb56e3bfba9478cbb30c3a032a597c0845e95",
	"groff/ultrix/1/full":      "04c68474944d0b05f4ccb4bbc2c5b7879471391a9217c41d3897e4cb4f7f6f77",
	"groff/ultrix/1/instr":     "d7ee740ad2cc295156486227a3352273e4e13cdcbb7e7a09b65cdbe3b5cb01d3",
	"gs/0/full":                "daa39422fe5fe5ce2080ff5f00ed33d19cf4dcbfe5d9a22e4d8c15a3bc45b458",
	"gs/0/instr":               "80716e79c565e883a274c39d14d1499727589f0cc7628088086f989d392f8fe6",
	"gs/1/full":                "84d4ef82cc97067b02114c8d89dba757c82ce10ca8d007c721b150f78e2df5ec",
	"gs/1/instr":               "a0b5e7fca0d1535cc736c72d5dd6f009de16fc857597618255dd9f265ccce966",
	"gs/ultrix/0/full":         "b88f5b5588598197e8ce1601e604e75a300c6c790a0a190fe05385e83df1ed12",
	"gs/ultrix/0/instr":        "fd36d6326dfa08cb4f836b66301c606acf530afc783f32c5caa36241f27f7d79",
	"gs/ultrix/1/full":         "52425af8f3db301d8ff95f132280763074e600048e88775a23f3c944f16c29f8",
	"gs/ultrix/1/instr":        "c225dab11201dc2b7b19e88e5248bc4a21f3e34d1b3c52a63e9ce4730b52be99",
	"jpeg_play/0/full":         "c073111d695008f6d8f51c5d4313ed52748e67228e4162506009e6a15df59b7e",
	"jpeg_play/0/instr":        "0580d354160c48db08bef5afe6deaaa4f94e1e2a18473b5fb75599469d42ef43",
	"jpeg_play/1/full":         "bbe13a7e7245c670f5fb61f00f3e4d3a85b5e21da9b5e22588308a2b0bb6dd24",
	"jpeg_play/1/instr":        "4ee38600f8c1fbf53a9ca263cb8ad9a527aae4aa157a2ba6f12b4063fe10cfbc",
	"jpeg_play/ultrix/0/full":  "f9a40ba49ae2df2520ddad8b319b06dcb5c915e880fc274bd5710523ad893f26",
	"jpeg_play/ultrix/0/instr": "ec16f9c362b9a27534273113600bba825423149ca1ffe1d7fb7026ffdc67715f",
	"jpeg_play/ultrix/1/full":  "588985578e13368a67f1f959933003350d1457e3626aecbafdfccb6b72d5116a",
	"jpeg_play/ultrix/1/instr": "ce3e78848e73e848def15e2a981d4d0538164bf5f37c72b1d71364cd1e645d6d",
	"mpeg_play/0/full":         "d1b34bb00dd3a9ec2547a9c436422d3e4ca1e6308ec94d280086da35463c283b",
	"mpeg_play/0/instr":        "0317df20c19d62192392cb79097470d309c79c9354ad99adb7a8198013b5ed6a",
	"mpeg_play/1/full":         "88901e358a1c2eb20db977ee8108d60f31b749c24a5940b536f371bf514aa5ff",
	"mpeg_play/1/instr":        "363ca62f97c7040f7edec1c182eca94836133edcb3d069bdd47c7f5c00266eb7",
	"mpeg_play/ultrix/0/full":  "9ad40066af686d496cfdb80fc32bf303f6d65f23519b6382763eee95a2723aab",
	"mpeg_play/ultrix/0/instr": "b7356e70c39eb0b75898385dd291ac752d0b485076c47fd9d2f22518c6d8a3c9",
	"mpeg_play/ultrix/1/full":  "8487dfad652a2b0fa146a93933ea7c0dae0f608965a65b57762b42c460ff66c9",
	"mpeg_play/ultrix/1/instr": "5cd0b64f65957568aba98382169bbf73ecf240447b6f85c71c3df2baf29429a1",
	"nroff/0/full":             "25766307e4848a80829ebc7bd116d6c1f67b54765a2931645ccfc821f468463e",
	"nroff/0/instr":            "fbc1e6fd6eb7cdee752928d51b2ed1c5e47de9a0f616b6ec23e7173f6414633a",
	"nroff/1/full":             "7819447cae4cc9c4222c230dd1725d524cdab3d39c3e089c3e1310fb5d267c74",
	"nroff/1/instr":            "d134d71085fa642c7a8894b016d553e5ca871130277f40d27ac4008d7f245c77",
	"nroff/ultrix/0/full":      "61029847482c6223ce4b1eb4be85ecbd3c3a6b201a6a50ddc3d88c051a7a6bab",
	"nroff/ultrix/0/instr":     "898e3e53a3015ee8774f711832ac890072ad45c72d254bbac93b56ec5da3cc4b",
	"nroff/ultrix/1/full":      "fe9cf3cbe3415d0e5728e76ca23ac8f1ab9e39a8072fdc501cc21f48aa5f6ffb",
	"nroff/ultrix/1/instr":     "0a4b74593cc9cf370acdd1238e33ae497f4f68fddf78524c8d0ec47dbbfca726",
	"sdet/0/full":              "5987f6c5e3a42b8699cef432025006ad316d7b306ba3de0a27be910658fe56f3",
	"sdet/0/instr":             "c88c2b17f11c97c4ecae173e7a4f7ae4719e1d4d0ffe9a13ca4110169e4b7b12",
	"sdet/1/full":              "dcfb49f4b84718c87328415c8e9aa6e144fd4883e25bdd0cf3dba5319bf35d7b",
	"sdet/1/instr":             "da835fe8255c3f0487907477e08aaa6baa8ebf6c86f9a7c572e1cd6a26d0716a",
	"sdet/ultrix/0/full":       "d69c75c5aedd844b46af2949ca74dae973e843cb5b37b5463124bf47992288a4",
	"sdet/ultrix/0/instr":      "762e17513ccabba38741ae0153c63c33e9b845e8814f09ecefd4ebf4a005a9cd",
	"sdet/ultrix/1/full":       "a90070c7088ffa7db28024d79e0d3c310f31f719f2a69aaf1d7f4ba5d2141ad2",
	"sdet/ultrix/1/instr":      "f3d59f103c86f1f0bb33c54c8689cb9eb12477574ca6f6dc5fc063309609e4c1",
	"spec_gcc/0/full":          "174ad416aed78d8ae4c925e4029a7720039f4b079bfa699182065c2ce2c7297a",
	"spec_gcc/0/instr":         "cca1b6ea0b7781c3cf6c5f8840e6265c51e642bf4ff6fa2b73838e3251603632",
	"spec_gcc/1/full":          "be47300642bf9faea57a24efec7756d53bc2dcb38026a6cd57677c0366de3f5e",
	"spec_gcc/1/instr":         "a240b5aa27c2b812fa6c4c9c0f07d2c71ef60334ee8a8d88624336b6bf6ff321",
	"specfp89/0/full":          "7fd974354a9ba8370cb070cdf511ebb5ef1dbffb5c9a283f61905e5105d57087",
	"specfp89/0/instr":         "b120011b9f80615eba402b05acc58bb394b3952b1a4bf2bdebe02d2f862cdddc",
	"specfp89/1/full":          "0eae419b4ec03b6e789726c3bbf8305553ee8a23d115ee82ad147fde51c4d4e9",
	"specfp89/1/instr":         "37683ec21ee0193cf2222c1b5010b1083cf524e3ba5730e8e60be76edba90f25",
	"specfp92/0/full":          "faf89aa557ef974e71725058b901310966d48415d8d5ca322f3ad8e45e4c96b6",
	"specfp92/0/instr":         "3ee5b75bc020c219085f714e2e9b0a6a700421bc9fb1e79b6a234fd9fb639dd9",
	"specfp92/1/full":          "eae50a14de58a2c90abaa4b805a24937b65ebe9e2ed24f7f99c3c934a58e18ad",
	"specfp92/1/instr":         "7e0c7904af31868d6a27831dc7bde943091d45aa43e6104b2239f60ef0f9521b",
	"specint89/0/full":         "3e2a2a89cb2e643ce0d7043d6416c1e6660f5921a505142cb1b330c15d288ecb",
	"specint89/0/instr":        "5cd7f9fbc9a3e9ffcd1d5d2db99bb5130c632977cfa4a335313bc8b270909d0d",
	"specint89/1/full":         "1a3507717c0e130dc2d7ed26b69ff0c6ba3f5fbfa03fe2cd9e2b23a1ee86bd49",
	"specint89/1/instr":        "fa01e14670f9c296d7d4d2c12cc5f4bbde8f7e3781001338c4e18cd86af54b83",
	"specint92/0/full":         "81ed8b3a48a282d7d24a6736768c52520736b265568ba3b2928b3ea402100a30",
	"specint92/0/instr":        "a1d9ac9c5cb21821549f7dc6d4927bed36df028c3458c2a3856004134784b618",
	"specint92/1/full":         "0804f747672424d01d4d8c6c49b32c2dd2bde0317aeb5e81ea6a1ce97bfbc354",
	"specint92/1/instr":        "cdab4e4ab0050b3266fb828deb5fb613b5f1c808ef14942d2042f654ec7acdc0",
	"verilog/0/full":           "0583669fb1a01c18236f2af5d2e68ff00087cf8b300f2e2ec7830c5fc05a3a8e",
	"verilog/0/instr":          "54f72d7f199bfdf5d199ef607a6a9ec07bc61a9f0b10be6cb9b5862c0be80897",
	"verilog/1/full":           "332490c31788128cc0d87939d7398fc656a4540fc995a51988a325d4b244fa0b",
	"verilog/1/instr":          "49276ab235687482a30b9677437ba2d594131d344244fd8bafee9e15bcb1d0cb",
	"verilog/ultrix/0/full":    "9e334d149d4eff29074f548564e22731c4a80e5a400f3ec15cf144ead3490337",
	"verilog/ultrix/0/instr":   "515a513d16922eaa2a6d720b9603f98bddffdb9606fd7d9717adffe5d55050c5",
	"verilog/ultrix/1/full":    "a3b2c484ac594981bc036fc805aeb3b20577aa8eb0596b285d28bf96cd14242e",
	"verilog/ultrix/1/instr":   "ed5f26abfa009137c4ca67255aa53aec6a0c0e71072b79d91c70401607aba552",
}

// streamDigest hashes refs as (addr uint64 LE, kind, domain) records.
func streamDigest(next func() trace.Ref, n int) string {
	h := sha256.New()
	var rec [10]byte
	for i := 0; i < n; i++ {
		r := next()
		binary.LittleEndian.PutUint64(rec[:8], r.Addr)
		rec[8] = byte(r.Kind)
		rec[9] = byte(r.Domain)
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestGeneratorStreamsPinned(t *testing.T) {
	names := Names()
	got := make(map[string]string)
	for _, name := range names {
		p, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{0, 1} {
			g := MustNewGenerator(p, seed)
			got[fmt.Sprintf("%s/%d/full", name, seed)] = streamDigest(g.Next, pinnedStreamRefs)
			src, err := NewSeekSource(p, seed, pinnedStreamRefs, nil)
			if err != nil {
				t.Fatal(err)
			}
			refs, err := trace.ExpandReader(src)
			if err != nil {
				t.Fatal(err)
			}
			got[fmt.Sprintf("%s/%d/instr", name, seed)] = streamDigest(func() trace.Ref {
				r := refs[0]
				refs = refs[1:]
				return r
			}, pinnedStreamRefs)
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want, ok := pinnedStreams[k]; !ok {
			t.Errorf("%s: no pinned digest (got %s)", k, got[k])
		} else if got[k] != want {
			t.Errorf("%s: digest %s, want %s", k, got[k], want)
		}
	}
	if len(pinnedStreams) != len(got) {
		t.Errorf("%d pinned digests, %d streams", len(pinnedStreams), len(got))
	}
}

-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'box3x3'
-- data path: 1 nodes (1 soft, 0 hard), 6 pipeline stages
-- netlist: 42 cells, 223 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity box3x3_dp_node1 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    v0_P0 : in unsigned(7 downto 0);
    v1_P1 : in unsigned(7 downto 0);
    v2_P2 : in unsigned(7 downto 0);
    v3_P3 : in unsigned(7 downto 0);
    v4_P4 : in unsigned(7 downto 0);
    v5_P5 : in unsigned(7 downto 0);
    v6_P6 : in unsigned(7 downto 0);
    v7_P7 : in unsigned(7 downto 0);
    v8_P8 : in unsigned(7 downto 0);
    v32_t_out : out unsigned(7 downto 0)
  );
end entity box3x3_dp_node1;

architecture rtl of box3x3_dp_node1 is
  signal v9_t : unsigned(8 downto 0);
  signal v10_t : unsigned(9 downto 0);
  signal v11_t : unsigned(9 downto 0);
  signal v12_t : unsigned(10 downto 0);
  signal v13_t : unsigned(10 downto 0);
  signal v14_t : unsigned(10 downto 0);
  signal v15_t : unsigned(10 downto 0);
  signal v16_t : unsigned(11 downto 0);
  signal v18_t : unsigned(13 downto 0);
  signal v19_t : signed(14 downto 0);
  signal v21_t : unsigned(16 downto 0);
  signal v22_t : signed(17 downto 0);
  signal v24_t : unsigned(19 downto 0);
  signal v25_t : signed(20 downto 0);
  signal v27_t : unsigned(22 downto 0);
  signal v28_t : signed(23 downto 0);
  signal v30_q_shr : unsigned(7 downto 0);
  signal v31_quot : unsigned(7 downto 0);
  signal v32_t : unsigned(7 downto 0);
  signal v11_t_s1 : unsigned(9 downto 0);
  signal v13_t_s2 : unsigned(10 downto 0);
  signal v15_t_s3 : unsigned(10 downto 0);
  signal v19_t_s4 : signed(14 downto 0);
  signal v21_t_s4 : unsigned(16 downto 0);
  signal v24_t_s4 : unsigned(19 downto 0);
  signal v25_t_s5 : signed(20 downto 0);
  signal v27_t_s4 : unsigned(22 downto 0);
  signal v27_t_s5 : unsigned(22 downto 0);
begin
  v9_t <= resize(v0_P0, 9) + resize(v1_P1, 9);
  v10_t <= resize(v9_t, 10) + resize(v2_P2, 10);
  v11_t <= v10_t + resize(v3_P3, 10);
  v12_t <= resize(v11_t_s1, 11) + resize(v4_P4, 11);
  v13_t <= v12_t + resize(v5_P5, 11);
  v14_t <= v13_t_s2 + resize(v6_P6, 11);
  v15_t <= v14_t + resize(v7_P7, 11);
  v16_t <= resize(v15_t_s3, 12) + resize(v8_P8, 12);
  v18_t <= shift_left(resize(v16_t, 14), to_integer(to_unsigned(2, 6)));
  v19_t <= signed(resize(v16_t, 15)) - signed(resize(v18_t, 15));
  v21_t <= shift_left(resize(v16_t, 17), to_integer(to_unsigned(5, 6)));
  v22_t <= resize(v19_t_s4, 18) + signed(resize(v21_t_s4, 18));
  v24_t <= shift_left(resize(v16_t, 20), to_integer(to_unsigned(8, 6)));
  v25_t <= resize(v22_t, 21) - signed(resize(v24_t_s4, 21));
  v27_t <= shift_left(resize(v16_t, 23), to_integer(to_unsigned(11, 6)));
  v28_t <= resize(v25_t_s5, 24) + signed(resize(v27_t_s5, 24));
  v30_q_shr <= shift_right(unsigned(resize(v28_t, 8)), to_integer(to_unsigned(14, 6)));
  v31_quot <= v30_q_shr;
  v32_t <= v31_quot;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v11_t_s1 <= v11_t;
        v13_t_s2 <= v13_t;
        v15_t_s3 <= v15_t;
        v19_t_s4 <= v19_t;
        v21_t_s4 <= v21_t;
        v24_t_s4 <= v24_t;
        v25_t_s5 <= v25_t;
        v27_t_s4 <= v27_t;
        v27_t_s5 <= v27_t_s4;
      end if;
    end if;
  end process;
  v32_t_out <= v32_t;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity box3x3_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    P0 : in unsigned(7 downto 0);
    P1 : in unsigned(7 downto 0);
    P2 : in unsigned(7 downto 0);
    P3 : in unsigned(7 downto 0);
    P4 : in unsigned(7 downto 0);
    P5 : in unsigned(7 downto 0);
    P6 : in unsigned(7 downto 0);
    P7 : in unsigned(7 downto 0);
    P8 : in unsigned(7 downto 0);
    B_o0 : out unsigned(7 downto 0)
  );
end entity box3x3_dp;

architecture rtl of box3x3_dp is
  signal v32_t : unsigned(7 downto 0);
  signal v4_P4_p1 : unsigned(7 downto 0);
  signal v5_P5_p1 : unsigned(7 downto 0);
  signal v6_P6_p1 : unsigned(7 downto 0);
  signal v6_P6_p2 : unsigned(7 downto 0);
  signal v7_P7_p1 : unsigned(7 downto 0);
  signal v7_P7_p2 : unsigned(7 downto 0);
  signal v8_P8_p1 : unsigned(7 downto 0);
  signal v8_P8_p2 : unsigned(7 downto 0);
  signal v8_P8_p3 : unsigned(7 downto 0);
begin
  u_node1 : entity work.box3x3_dp_node1
    port map (clk => clk, ce => ce, v0_P0 => P0, v1_P1 => P1, v2_P2 => P2, v3_P3 => P3, v4_P4 => v4_P4_p1, v5_P5 => v5_P5_p1, v6_P6 => v6_P6_p2, v7_P7 => v7_P7_p2, v8_P8 => v8_P8_p3, v32_t_out => v32_t);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        v4_P4_p1 <= P4;
        v5_P5_p1 <= P5;
        v6_P6_p1 <= P6;
        v6_P6_p2 <= v6_P6_p1;
        v7_P7_p1 <= P7;
        v7_P7_p2 <= v7_P7_p1;
        v8_P8_p1 <= P8;
        v8_P8_p2 <= v8_P8_p1;
        v8_P8_p3 <= v8_P8_p2;
      end if;
    end if;
  end process;
  B_o0 <= resize(v32_t, 8);
end architecture rtl;

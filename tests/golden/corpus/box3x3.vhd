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
    P0 : in unsigned(7 downto 0);
    P1 : in unsigned(7 downto 0);
    P2 : in unsigned(7 downto 0);
    P3 : in unsigned(7 downto 0);
    P4_s1 : in unsigned(7 downto 0);
    P5_s1 : in unsigned(7 downto 0);
    P6_s2 : in unsigned(7 downto 0);
    P7_s2 : in unsigned(7 downto 0);
    P8_s3 : in unsigned(7 downto 0);
    t32_out : out unsigned(7 downto 0)
  );
end entity box3x3_dp_node1;

architecture rtl of box3x3_dp_node1 is
  signal t9 : unsigned(8 downto 0);
  signal t10 : unsigned(9 downto 0);
  signal t11 : unsigned(9 downto 0);
  signal t11_s1 : unsigned(9 downto 0) := (others => '0');
  signal t12 : unsigned(10 downto 0);
  signal t13 : unsigned(10 downto 0);
  signal t13_s2 : unsigned(10 downto 0) := (others => '0');
  signal t14 : unsigned(10 downto 0);
  signal t15 : unsigned(10 downto 0);
  signal t15_s3 : unsigned(10 downto 0) := (others => '0');
  signal t16 : unsigned(11 downto 0);
  signal t27 : unsigned(22 downto 0);
  signal t24 : unsigned(19 downto 0);
  signal t21 : unsigned(16 downto 0);
  signal t18 : unsigned(13 downto 0);
  signal t19 : signed(14 downto 0);
  signal t19_s4 : signed(14 downto 0) := (others => '0');
  signal t21_s4 : unsigned(16 downto 0) := (others => '0');
  signal t22 : signed(17 downto 0);
  signal t24_s4 : unsigned(19 downto 0) := (others => '0');
  signal t25 : signed(20 downto 0);
  signal t25_s5 : signed(20 downto 0) := (others => '0');
  signal t27_s4 : unsigned(22 downto 0) := (others => '0');
  signal t27_s5 : unsigned(22 downto 0) := (others => '0');
  signal t28 : signed(23 downto 0);
  signal q_shr : unsigned(7 downto 0);
  signal t32 : unsigned(7 downto 0);
begin
  t9 <= resize(P0, 9) + resize(P1, 9);
  t10 <= resize(t9, 10) + resize(P2, 10);
  t11 <= t10 + resize(P3, 10);
  t12 <= resize(t11_s1, 11) + resize(P4_s1, 11);
  t13 <= t12 + resize(P5_s1, 11);
  t14 <= t13_s2 + resize(P6_s2, 11);
  t15 <= t14 + resize(P7_s2, 11);
  t16 <= resize(t15_s3, 12) + resize(P8_s3, 12);
  t27 <= shift_left(resize(t16, 23), 11);
  t24 <= shift_left(resize(t16, 20), 8);
  t21 <= shift_left(resize(t16, 17), 5);
  t18 <= shift_left(resize(t16, 14), 2);
  t19 <= signed(resize(t16, 15)) - signed(resize(t18, 15));
  t22 <= resize(t19_s4, 18) + signed(resize(t21_s4, 18));
  t25 <= resize(t22, 21) - signed(resize(t24_s4, 21));
  t28 <= resize(t25_s5, 24) + signed(resize(t27_s5, 24));
  q_shr <= unsigned(t28(21 downto 14));
  t32 <= q_shr;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t11_s1 <= t11;
        t13_s2 <= t13;
        t15_s3 <= t15;
        t19_s4 <= t19;
        t21_s4 <= t21;
        t24_s4 <= t24;
        t25_s5 <= t25;
        t27_s4 <= t27;
        t27_s5 <= t27_s4;
      end if;
    end if;
  end process;
  t32_out <= t32;
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
  signal t32 : unsigned(7 downto 0);
  signal P4_s1 : unsigned(7 downto 0) := (others => '0');
  signal P5_s1 : unsigned(7 downto 0) := (others => '0');
  signal P6_s1 : unsigned(7 downto 0) := (others => '0');
  signal P6_s2 : unsigned(7 downto 0) := (others => '0');
  signal P7_s1 : unsigned(7 downto 0) := (others => '0');
  signal P7_s2 : unsigned(7 downto 0) := (others => '0');
  signal P8_s1 : unsigned(7 downto 0) := (others => '0');
  signal P8_s2 : unsigned(7 downto 0) := (others => '0');
  signal P8_s3 : unsigned(7 downto 0) := (others => '0');
begin
  u_node1 : entity work.box3x3_dp_node1
    port map (clk => clk, ce => ce, P0 => P0, P1 => P1, P2 => P2, P3 => P3, P4_s1 => P4_s1, P5_s1 => P5_s1, P6_s2 => P6_s2, P7_s2 => P7_s2, P8_s3 => P8_s3, t32_out => t32);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        P4_s1 <= P4;
        P5_s1 <= P5;
        P6_s1 <= P6;
        P6_s2 <= P6_s1;
        P7_s1 <= P7;
        P7_s2 <= P7_s1;
        P8_s1 <= P8;
        P8_s2 <= P8_s1;
        P8_s3 <= P8_s2;
      end if;
    end if;
  end process;
  B_o0 <= t32;
end architecture rtl;
